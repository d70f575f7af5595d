//! Integration tests for the simulated kernel and its coreutils.

use crate::{read_all, write_all, OpenMode, Os, OsError, Signal, SimOs, STDIN, STDOUT};
use proptest::prelude::*;

/// Runs `/bin/<name> args...` with stdin scripted and stdout captured
/// into a pipe; returns (status, stdout-as-string).
fn run_prog(os: &mut SimOs, name: &str, args: &[&str], stdin: &str) -> (i32, String) {
    let (stdin_r, stdin_w) = os.pipe().unwrap();
    write_all(os, stdin_w, stdin.as_bytes()).unwrap();
    os.close(stdin_w).unwrap();
    let (out_r, out_w) = os.pipe().unwrap();
    let mut argv = vec![format!("/bin/{name}")];
    argv.extend(args.iter().map(|s| s.to_string()));
    let env = os.initial_env();
    let status = os
        .run(&argv, &env, &[(0, stdin_r), (1, out_w), (2, crate::STDERR)])
        .unwrap();
    os.close(out_w).unwrap();
    let out = read_all(os, out_r).unwrap();
    os.close(out_r).unwrap();
    os.close(stdin_r).unwrap();
    (status, String::from_utf8_lossy(&out).into_owned())
}

#[test]
fn open_read_write_roundtrip() {
    let mut os = SimOs::new();
    let fd = os.open("/tmp/foo", OpenMode::Write).unwrap();
    write_all(&mut os, fd, b"hello\n").unwrap();
    os.close(fd).unwrap();
    let fd = os.open("/tmp/foo", OpenMode::Read).unwrap();
    assert_eq!(read_all(&mut os, fd).unwrap(), b"hello\n");
    os.close(fd).unwrap();
}

#[test]
fn write_truncates_append_appends() {
    let mut os = SimOs::new();
    let fd = os.open("/tmp/f", OpenMode::Write).unwrap();
    write_all(&mut os, fd, b"one\n").unwrap();
    os.close(fd).unwrap();
    let fd = os.open("/tmp/f", OpenMode::Append).unwrap();
    write_all(&mut os, fd, b"two\n").unwrap();
    os.close(fd).unwrap();
    let fd = os.open("/tmp/f", OpenMode::Read).unwrap();
    assert_eq!(read_all(&mut os, fd).unwrap(), b"one\ntwo\n");
    os.close(fd).unwrap();
    let fd = os.open("/tmp/f", OpenMode::Write).unwrap();
    os.close(fd).unwrap();
    let fd = os.open("/tmp/f", OpenMode::Read).unwrap();
    assert_eq!(read_all(&mut os, fd).unwrap(), b"", "Write truncates");
    os.close(fd).unwrap();
}

#[test]
fn open_missing_file_is_enoent() {
    let mut os = SimOs::new();
    assert_eq!(
        os.open("/no/where", OpenMode::Read),
        Err(OsError::NoEnt("/no/where".into()))
    );
}

#[test]
fn pipes_carry_bytes_and_eof() {
    let mut os = SimOs::new();
    let (r, w) = os.pipe().unwrap();
    write_all(&mut os, w, b"abc").unwrap();
    os.close(w).unwrap();
    assert_eq!(read_all(&mut os, r).unwrap(), b"abc");
    os.close(r).unwrap();
}

#[test]
fn write_to_pipe_without_reader_is_epipe() {
    let mut os = SimOs::new();
    let (r, w) = os.pipe().unwrap();
    os.close(r).unwrap();
    assert_eq!(os.write(w, b"x"), Err(OsError::Pipe));
}

#[test]
fn dup_shares_description() {
    let mut os = SimOs::new();
    let (r, w) = os.pipe().unwrap();
    let w2 = os.dup(w).unwrap();
    os.close(w).unwrap();
    // Still one writer: the pipe is not EOF yet conceptually, and the
    // dup'd descriptor still works.
    write_all(&mut os, w2, b"via dup").unwrap();
    os.close(w2).unwrap();
    assert_eq!(read_all(&mut os, r).unwrap(), b"via dup");
}

#[test]
fn chdir_and_cwd() {
    let mut os = SimOs::new();
    assert_eq!(os.cwd(), "/home/user");
    os.chdir("/tmp").unwrap();
    assert_eq!(os.cwd(), "/tmp");
    assert_eq!(os.chdir("/temp"), Err(OsError::NoEnt("/temp".into())));
    assert_eq!(
        os.chdir("/temp").unwrap_err().to_string(),
        "/temp: No such file or directory",
        "the paper's `in /temp` example error text"
    );
    os.chdir("..").unwrap();
    assert_eq!(os.cwd(), "/");
}

#[test]
fn console_io_is_scriptable() {
    let mut os = SimOs::new();
    os.push_input("typed\n");
    let mut buf = [0u8; 16];
    let n = os.read(STDIN, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"typed\n");
    write_all(&mut os, STDOUT, b"printed").unwrap();
    assert_eq!(os.take_output(), "printed");
    assert_eq!(os.take_output(), "", "take clears");
}

/// An interactive kernel writes console output through to the real
/// stdout/stderr and keeps no copy, so a long REPL session does not
/// grow a buffer nothing drains.
#[test]
fn interactive_console_output_is_not_buffered() {
    let mut os = SimOs::new();
    os.set_interactive(true);
    write_all(&mut os, STDOUT, b"\n").unwrap();
    write_all(&mut os, crate::STDERR, b"\n").unwrap();
    assert_eq!(os.take_output(), "");
    assert_eq!(os.take_error(), "");
}

#[test]
fn signals_queue_and_drain() {
    let mut os = SimOs::new();
    assert_eq!(os.take_signal(), None);
    os.raise_signal(Signal::Int);
    os.raise_signal(Signal::Term);
    assert_eq!(os.take_signal(), Some(Signal::Int));
    assert_eq!(os.take_signal(), Some(Signal::Term));
    assert_eq!(os.take_signal(), None);
}

#[test]
fn run_missing_program_is_enoent() {
    let mut os = SimOs::new();
    let err = os.run(&["/bin/nosuch".into()], &[], &[]).unwrap_err();
    assert_eq!(err, OsError::NoEnt("/bin/nosuch".into()));
}

#[test]
fn run_non_executable_is_eacces_or_noexec() {
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/data", b"hi").unwrap();
    assert_eq!(
        os.run(&["/tmp/data".into()], &[], &[]),
        Err(OsError::Access("/tmp/data".into()))
    );
    os.vfs_mut().set_executable("/tmp/data", true).unwrap();
    assert_eq!(
        os.run(&["/tmp/data".into()], &[], &[]),
        Err(OsError::NoExec("/tmp/data".into())),
        "executable scripts bounce back to the shell as ENOEXEC"
    );
}

// ---------------------------------------------------------------------------
// Coreutils.
// ---------------------------------------------------------------------------

#[test]
fn echo_basic_and_n() {
    let mut os = SimOs::new();
    assert_eq!(
        run_prog(&mut os, "echo", &["hi", "there"], "").1,
        "hi there\n"
    );
    assert_eq!(run_prog(&mut os, "echo", &["-n", "x"], "").1, "x");
    assert_eq!(run_prog(&mut os, "echo", &[], "").1, "\n");
}

#[test]
fn cat_stdin_and_files() {
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/a", b"A\n").unwrap();
    os.vfs_mut().put_file("/tmp/b", b"B\n").unwrap();
    assert_eq!(run_prog(&mut os, "cat", &[], "from stdin").1, "from stdin");
    assert_eq!(
        run_prog(&mut os, "cat", &["/tmp/a", "/tmp/b"], "").1,
        "A\nB\n"
    );
    let (status, _) = run_prog(&mut os, "cat", &["/tmp/missing"], "");
    assert_eq!(status, 1);
}

#[test]
fn tr_cs_splits_words_like_figure_1() {
    let mut os = SimOs::new();
    let (_, out) = run_prog(
        &mut os,
        "tr",
        &["-cs", "a-zA-Z0-9", "\\012"],
        "the quick, brown fox -- 42 times!\n",
    );
    let words: Vec<&str> = out.split('\n').filter(|w| !w.is_empty()).collect();
    assert_eq!(words, ["the", "quick", "brown", "fox", "42", "times"]);
}

#[test]
fn tr_translate_and_delete() {
    let mut os = SimOs::new();
    assert_eq!(run_prog(&mut os, "tr", &["a-z", "A-Z"], "abc!").1, "ABC!");
    assert_eq!(run_prog(&mut os, "tr", &["-d", "0-9"], "a1b2c3").1, "abc");
}

#[test]
fn sort_plain_numeric_reverse_unique() {
    let mut os = SimOs::new();
    assert_eq!(run_prog(&mut os, "sort", &[], "b\na\nc\n").1, "a\nb\nc\n");
    assert_eq!(
        run_prog(&mut os, "sort", &["-n"], "10\n9\n100\n").1,
        "9\n10\n100\n"
    );
    assert_eq!(
        run_prog(&mut os, "sort", &["-nr"], "  1 b\n 10 a\n  2 c\n").1,
        " 10 a\n  2 c\n  1 b\n"
    );
    assert_eq!(run_prog(&mut os, "sort", &["-u"], "b\na\nb\n").1, "a\nb\n");
}

#[test]
fn uniq_counts_adjacent_runs() {
    let mut os = SimOs::new();
    assert_eq!(
        run_prog(&mut os, "uniq", &[], "a\na\nb\na\n").1,
        "a\nb\na\n"
    );
    // GNU format: `%7d ` count column.
    let (_, out) = run_prog(&mut os, "uniq", &["-c"], "x\nx\ny\n");
    assert_eq!(out, "      2 x\n      1 y\n");
}

#[test]
fn wc_counts() {
    let mut os = SimOs::new();
    // GNU pads stdin counts to 7 columns, space separated...
    let (_, out) = run_prog(&mut os, "wc", &[], "one two\nthree\n");
    assert_eq!(out, "      2       3      14\n");
    // ...but a single count type prints bare.
    let (_, out) = run_prog(&mut os, "wc", &["-l"], "a\nb\n");
    assert_eq!(out, "2\n");
    // Named files size the column to the digits of the total byte
    // count (here 10 + 6 = 16 bytes → width 2).
    os.vfs_mut()
        .put_file("/tmp/f5", b"1\n2\n3\n4\n5\n")
        .unwrap();
    os.vfs_mut().put_file("/tmp/u3", b"a\nb\nc\n").unwrap();
    let (_, out) = run_prog(&mut os, "wc", &["-l", "/tmp/f5", "/tmp/u3"], "");
    assert_eq!(out, " 5 /tmp/f5\n 3 /tmp/u3\n 8 total\n");
    let (_, out) = run_prog(&mut os, "wc", &["/tmp/f5"], "");
    assert_eq!(out, " 5  5 10 /tmp/f5\n");
}

#[test]
fn head_and_tail() {
    let mut os = SimOs::new();
    let input = "1\n2\n3\n4\n5\n";
    assert_eq!(run_prog(&mut os, "head", &["-2"], input).1, "1\n2\n");
    assert_eq!(run_prog(&mut os, "head", &["-n", "2"], input).1, "1\n2\n");
    assert_eq!(run_prog(&mut os, "tail", &["-2"], input).1, "4\n5\n");
    let eleven = (1..=11).map(|i| format!("{i}\n")).collect::<String>();
    assert_eq!(
        run_prog(&mut os, "head", &[], &eleven).1,
        (1..=10).map(|i| format!("{i}\n")).collect::<String>()
    );
}

#[test]
fn grep_patterns_and_status() {
    let mut os = SimOs::new();
    let input = "byron 4523\nroot 1\nbyron 99\n";
    let (st, out) = run_prog(&mut os, "grep", &["^byron"], input);
    assert_eq!(st, 0);
    assert_eq!(out, "byron 4523\nbyron 99\n");
    let (st, out) = run_prog(&mut os, "grep", &["-v", "^byron"], input);
    assert_eq!(st, 0);
    assert_eq!(out, "root 1\n");
    let (st, out) = run_prog(&mut os, "grep", &["-c", "byron"], input);
    assert_eq!((st, out.trim()), (0, "2"));
    let (st, _) = run_prog(&mut os, "grep", &["nomatch"], input);
    assert_eq!(st, 1);
    let (st, _) = run_prog(&mut os, "grep", &["(bad"], input);
    assert_eq!(st, 2);
}

#[test]
fn sed_q_s_p_d() {
    let mut os = SimOs::new();
    let input = "a\nb\nc\nd\n";
    assert_eq!(run_prog(&mut os, "sed", &["2q"], input).1, "a\nb\n");
    assert_eq!(
        run_prog(&mut os, "sed", &["s/a/X/"], input).1,
        "X\nb\nc\nd\n"
    );
    assert_eq!(
        run_prog(&mut os, "sed", &["s/[ab]/X/"], "aa\nbb\n").1,
        "Xa\nXb\n"
    );
    assert_eq!(run_prog(&mut os, "sed", &["s/[ab]/X/g"], "ab\n").1, "XX\n");
    assert_eq!(run_prog(&mut os, "sed", &["/b/d"], input).1, "a\nc\nd\n");
    assert_eq!(run_prog(&mut os, "sed", &["-n", "/c/p"], input).1, "c\n");
    assert_eq!(run_prog(&mut os, "sed", &["$d"], input).1, "a\nb\nc\n");
    assert_eq!(
        run_prog(&mut os, "sed", &["s/\\(.\\)x/<\\1>/"], "ax\n").1,
        "ax\n",
        "BRE-style escaped parens are literal in our ERE engine"
    );
    assert_eq!(
        run_prog(&mut os, "sed", &["s/(.)x/<\\1>/"], "ax\n").1,
        "<a>\n"
    );
}

#[test]
fn awk_print_fields() {
    let mut os = SimOs::new();
    let input = "byron 4523 0.0\nroot 1 0.0\n";
    assert_eq!(
        run_prog(&mut os, "awk", &["{print $2}"], input).1,
        "4523\n1\n"
    );
    assert_eq!(
        run_prog(&mut os, "awk", &["/^byron/ {print $2}"], input).1,
        "4523\n"
    );
    assert_eq!(run_prog(&mut os, "awk", &["{print NF}"], input).1, "3\n3\n");
}

#[test]
fn ls_and_file_programs() {
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/z", b"").unwrap();
    os.vfs_mut().put_file("/tmp/a", b"").unwrap();
    assert_eq!(run_prog(&mut os, "ls", &["/tmp"], "").1, "a\nz\n");
    run_prog(&mut os, "rm", &["/tmp/a"], "");
    assert!(!os.is_file("/tmp/a"));
    run_prog(&mut os, "touch", &["/tmp/new"], "");
    assert!(os.is_file("/tmp/new"));
    run_prog(&mut os, "mkdir", &["/tmp/dir"], "");
    assert!(os.is_dir("/tmp/dir"));
    run_prog(&mut os, "cp", &["/tmp/z", "/tmp/dir"], "");
    assert!(os.is_file("/tmp/dir/z"));
    run_prog(&mut os, "mv", &["/tmp/z", "/tmp/zz"], "");
    assert!(os.is_file("/tmp/zz") && !os.is_file("/tmp/z"));
    run_prog(&mut os, "rm", &["-r", "/tmp/dir"], "");
    assert!(!os.is_dir("/tmp/dir"));
}

/// `/dev/null` reads as empty and swallows writes, through the kernel
/// and through programs, and `ls /dev` lists it.
#[test]
fn dev_null_discards_and_reads_empty() {
    let mut os = SimOs::new();
    for mode in [OpenMode::Write, OpenMode::Append] {
        let fd = os.open("/dev/null", mode).unwrap();
        write_all(&mut os, fd, b"gone").unwrap();
        os.close(fd).unwrap();
    }
    let fd = os.open("/dev/null", OpenMode::Read).unwrap();
    assert_eq!(read_all(&mut os, fd).unwrap(), b"");
    os.close(fd).unwrap();
    assert_eq!(run_prog(&mut os, "cat", &["/dev/null"], "").1, "");
    assert_eq!(run_prog(&mut os, "ls", &["/dev"], "").1, "null\n");
    assert_eq!(run_prog(&mut os, "ls", &["/dev/null"], "").1, "/dev/null\n");
    assert_eq!(run_prog(&mut os, "test", &["-e", "/dev/null"], "").0, 0);
    assert!(!os.is_file("/dev/null") && !os.is_dir("/dev/null"));
}

#[test]
fn test_program_conditions() {
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/f", b"x").unwrap();
    assert_eq!(run_prog(&mut os, "test", &["-f", "/tmp/f"], "").0, 0);
    assert_eq!(run_prog(&mut os, "test", &["-f", "/tmp/g"], "").0, 1);
    assert_eq!(run_prog(&mut os, "test", &["-d", "/tmp"], "").0, 0);
    assert_eq!(run_prog(&mut os, "test", &["a", "=", "a"], "").0, 0);
    assert_eq!(run_prog(&mut os, "test", &["a", "!=", "a"], "").0, 1);
    assert_eq!(run_prog(&mut os, "test", &["3", "-lt", "5"], "").0, 0);
    assert_eq!(run_prog(&mut os, "test", &["!", "-f", "/tmp/g"], "").0, 0);
    assert_eq!(run_prog(&mut os, "[", &["-f", "/tmp/f", "]"], "").0, 0);
    assert_eq!(
        run_prog(&mut os, "[", &["-f", "/tmp/f"], "").0,
        1,
        "missing ]"
    );
}

#[test]
fn date_formats_virtual_clock() {
    let mut os = SimOs::new();
    let (_, out) = run_prog(&mut os, "date", &["+%y-%m-%d"], "");
    assert_eq!(out.trim(), "93-01-25", "the paper's `fn d` example format");
    os.advance_ns(86_400 * 1_000_000_000);
    let (_, out) = run_prog(&mut os, "date", &["+%Y/%m/%d %H:%M"], "");
    assert!(out.starts_with("1993/01/26"), "clock advanced: {out}");
}

#[test]
fn ps_grep_awk_xargs_kill_pipeline_by_hand() {
    // The paper's intro pipeline, staged manually through pipes:
    // ps aux | grep '^byron' | awk '{print $2}' | xargs kill -9
    let mut os = SimOs::new();
    let (_, ps_out) = run_prog(&mut os, "ps", &["aux"], "");
    assert!(ps_out.contains("byron"));
    let (_, grep_out) = run_prog(&mut os, "grep", &["^byron"], &ps_out);
    let (_, awk_out) = run_prog(&mut os, "awk", &["{print $2}"], &grep_out);
    let pids: Vec<&str> = awk_out.split_whitespace().collect();
    assert_eq!(pids, ["4523", "4619"]);
    let (st, _) = run_prog(&mut os, "xargs", &["kill", "-9"], &awk_out);
    assert_eq!(st, 0);
    let (_, ps_after) = run_prog(&mut os, "ps", &["aux"], "");
    assert!(!ps_after.contains("byron"), "byron's processes are gone");
}

#[test]
fn kill_shell_pid_queues_signal() {
    let mut os = SimOs::new();
    let pid = os.shell_pid.to_string();
    let (st, _) = run_prog(&mut os, "kill", &["-2", &pid], "");
    assert_eq!(st, 0);
    assert_eq!(os.take_signal(), Some(Signal::Int));
}

#[test]
fn figure1_pipeline_shape() {
    // cat paper | tr -cs a-zA-Z0-9 '\012' | sort | uniq -c | sort -nr | sed 6q
    let mut os = SimOs::new();
    let text = "the a the b the a to of is and the a to to a of\n".repeat(20);
    os.vfs_mut()
        .put_file("/tmp/paper9", text.as_bytes())
        .unwrap();
    let (_, s1) = run_prog(&mut os, "cat", &["/tmp/paper9"], "");
    let (_, s2) = run_prog(&mut os, "tr", &["-cs", "a-zA-Z0-9", "\\012"], &s1);
    let (_, s3) = run_prog(&mut os, "sort", &[], &s2);
    let (_, s4) = run_prog(&mut os, "uniq", &["-c"], &s3);
    let (_, s5) = run_prog(&mut os, "sort", &["-nr"], &s4);
    let (_, s6) = run_prog(&mut os, "sed", &["6q"], &s5);
    let lines: Vec<&str> = s6.lines().collect();
    assert_eq!(lines.len(), 6);
    // "the" appears 4x20=80 times, the most frequent word.
    assert!(lines[0].trim().starts_with("80"), "top line: {}", lines[0]);
    assert!(lines[0].ends_with("the"));
    // Counts are non-increasing down the list.
    let counts: Vec<i64> = lines
        .iter()
        .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
        .collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn virtual_time_advances_with_work() {
    let mut os = SimOs::new();
    let t0 = os.now_ns();
    let r0 = os.children_rusage();
    run_prog(&mut os, "echo", &["hi"], "");
    assert!(os.now_ns() > t0, "real time advanced");
    let r1 = os.children_rusage();
    assert!(r1.user_ns > r0.user_ns && r1.sys_ns > r0.sys_ns);
    // Sort charges more user time than cat for the same bytes.
    let base = os.children_rusage();
    let input = "z\ny\nx\nw\nv\nu\n".repeat(200);
    run_prog(&mut os, "cat", &[], &input);
    let cat_cost = os.children_rusage() - base;
    let base = os.children_rusage();
    run_prog(&mut os, "sort", &[], &input);
    let sort_cost = os.children_rusage() - base;
    assert!(
        sort_cost.user_ns > cat_cost.user_ns,
        "sort {} !> cat {}",
        sort_cost.user_ns,
        cat_cost.user_ns
    );
}

#[test]
fn fork_clone_is_independent() {
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/shared", b"1").unwrap();
    let mut child = os.clone();
    child.vfs_mut().put_file("/tmp/childonly", b"2").unwrap();
    child.chdir("/tmp").unwrap();
    assert!(!os.is_file("/tmp/childonly"));
    assert_eq!(os.cwd(), "/home/user");
    assert_eq!(child.cwd(), "/tmp");
}

#[test]
fn basename_dirname_pwd() {
    let mut os = SimOs::new();
    assert_eq!(
        run_prog(&mut os, "basename", &["/a/b/c.txt"], "").1,
        "c.txt\n"
    );
    assert_eq!(
        run_prog(&mut os, "basename", &["/a/b/c.txt", ".txt"], "").1,
        "c\n"
    );
    assert_eq!(
        run_prog(&mut os, "dirname", &["/a/b/c.txt"], "").1,
        "/a/b\n"
    );
    assert_eq!(run_prog(&mut os, "dirname", &["plain"], "").1, ".\n");
    assert_eq!(run_prog(&mut os, "pwd", &[], "").1, "/home/user\n");
}

#[test]
fn seq_and_tee() {
    let mut os = SimOs::new();
    assert_eq!(run_prog(&mut os, "seq", &["3"], "").1, "1\n2\n3\n");
    assert_eq!(run_prog(&mut os, "seq", &["2", "4"], "").1, "2\n3\n4\n");
    let (_, out) = run_prog(&mut os, "tee", &["/tmp/copy"], "data\n");
    assert_eq!(out, "data\n");
    let fd = os.open("/tmp/copy", OpenMode::Read).unwrap();
    assert_eq!(read_all(&mut os, fd).unwrap(), b"data\n");
}

#[test]
fn env_program_reports_environment() {
    let mut os = SimOs::new();
    let (_, out) = run_prog(&mut os, "env", &[], "");
    assert!(out.contains("HOME=/home/user"));
    assert!(out.contains("PATH=/bin:/usr/bin"));
    // A program run through `xargs` is handed the same environment.
    let (_, via_xargs) = run_prog(&mut os, "xargs", &["env"], "");
    assert_eq!(via_xargs, out);
}

#[test]
fn sleep_advances_real_clock_only() {
    let mut os = SimOs::new();
    let r0 = os.children_rusage();
    let t0 = os.now_ns();
    run_prog(&mut os, "sleep", &["2"], "");
    assert!(os.now_ns() - t0 >= 2_000_000_000);
    let cpu = os.children_rusage() - r0;
    assert!(cpu.total_ns() < 1_000_000_000, "sleep burns no CPU");
}

proptest! {
    #[test]
    fn prop_sort_output_is_sorted_permutation(
        lines in proptest::collection::vec("[a-z]{0,6}", 0..40)
    ) {
        let mut os = SimOs::new();
        let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let (st, out) = run_prog(&mut os, "sort", &[], &input);
        prop_assert_eq!(st, 0);
        let mut got: Vec<&str> = out.lines().collect();
        let mut want: Vec<&str> = lines.iter().map(String::as_str).collect();
        prop_assert!(got.windows(2).all(|w| w[0] <= w[1]));
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn prop_wc_l_equals_line_count(lines in proptest::collection::vec("[a-z ]{0,10}", 0..30)) {
        let mut os = SimOs::new();
        let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let (_, out) = run_prog(&mut os, "wc", &["-l"], &input);
        prop_assert_eq!(out.trim().parse::<usize>().unwrap(), lines.len());
    }

    #[test]
    fn prop_grep_v_partitions(lines in proptest::collection::vec("[ab]{1,4}", 1..30)) {
        let mut os = SimOs::new();
        let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let (_, hits) = run_prog(&mut os, "grep", &["^a"], &input);
        let (_, misses) = run_prog(&mut os, "grep", &["-v", "^a"], &input);
        prop_assert_eq!(hits.lines().count() + misses.lines().count(), lines.len());
        prop_assert!(hits.lines().all(|l| l.starts_with('a')));
        prop_assert!(misses.lines().all(|l| !l.starts_with('a')));
    }

    #[test]
    fn prop_head_tail_cover(n in 1usize..20, k in 0usize..25) {
        let mut os = SimOs::new();
        let lines: Vec<String> = (0..n).map(|i| format!("line{i}")).collect();
        let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let karg = k.to_string();
        let (_, h) = run_prog(&mut os, "head", &["-n", &karg], &input);
        let (_, t) = run_prog(&mut os, "tail", &["-n", &karg], &input);
        prop_assert_eq!(h.lines().count(), k.min(n));
        prop_assert_eq!(t.lines().count(), k.min(n));
    }
}

// ---------------------------------------------------------------------------
// The extra utilities (expr, cut, printf, nl, tac, cmp, which).
// ---------------------------------------------------------------------------

#[test]
fn expr_arithmetic_and_comparisons() {
    let mut os = SimOs::new();
    assert_eq!(
        run_prog(&mut os, "expr", &["2", "+", "3"], ""),
        (0, "5\n".into())
    );
    assert_eq!(
        run_prog(&mut os, "expr", &["10", "-", "4", "*", "2"], "").1,
        "12\n"
    );
    assert_eq!(run_prog(&mut os, "expr", &["7", "/", "2"], "").1, "3\n");
    assert_eq!(run_prog(&mut os, "expr", &["7", "%", "2"], "").1, "1\n");
    assert_eq!(
        run_prog(&mut os, "expr", &["3", "<", "5"], ""),
        (0, "1\n".into())
    );
    assert_eq!(
        run_prog(&mut os, "expr", &["5", "<", "3"], ""),
        (1, "0\n".into())
    );
    assert_eq!(run_prog(&mut os, "expr", &["4", "=", "4"], "").0, 0);
    let (st, _) = run_prog(&mut os, "expr", &["1", "/", "0"], "");
    assert_eq!(st, 1);
    let (st, _) = run_prog(&mut os, "expr", &["x"], "");
    assert_eq!(st, 1);
}

#[test]
fn cut_fields_and_chars() {
    let mut os = SimOs::new();
    let input = "a:b:c\nd:e:f\n";
    assert_eq!(
        run_prog(&mut os, "cut", &["-d", ":", "-f", "2"], input).1,
        "b\ne\n"
    );
    assert_eq!(
        run_prog(&mut os, "cut", &["-d", ":", "-f", "1,3"], input).1,
        "a:c\nd:f\n"
    );
    assert_eq!(
        run_prog(&mut os, "cut", &["-c", "2-3"], "abcdef\n").1,
        "bc\n"
    );
    assert_eq!(run_prog(&mut os, "cut", &["-c", "2"], "abc\n").1, "b\n");
    let (st, _) = run_prog(&mut os, "cut", &[], "x\n");
    assert_eq!(st, 1);
}

#[test]
fn printf_formats() {
    let mut os = SimOs::new();
    assert_eq!(
        run_prog(&mut os, "printf", &["%s=%d\\n", "a", "1", "b", "2"], "").1,
        "a=1\nb=2\n"
    );
    assert_eq!(run_prog(&mut os, "printf", &["100%%\\n"], "").1, "100%\n");
    assert_eq!(run_prog(&mut os, "printf", &["x\\ty\\n"], "").1, "x\ty\n");
}

#[test]
fn nl_tac_cmp_which() {
    let mut os = SimOs::new();
    assert_eq!(
        run_prog(&mut os, "nl", &[], "a\nb\n").1,
        format!("{:6}\ta\n{:6}\tb\n", 1, 2)
    );
    assert_eq!(run_prog(&mut os, "tac", &[], "1\n2\n3\n").1, "3\n2\n1\n");
    os.vfs_mut().put_file("/tmp/x", b"same").unwrap();
    os.vfs_mut().put_file("/tmp/y", b"same").unwrap();
    os.vfs_mut().put_file("/tmp/z", b"diff").unwrap();
    assert_eq!(run_prog(&mut os, "cmp", &["/tmp/x", "/tmp/y"], "").0, 0);
    assert_eq!(run_prog(&mut os, "cmp", &["/tmp/x", "/tmp/z"], "").0, 1);
    assert_eq!(run_prog(&mut os, "which", &["ls"], "").1, "/bin/ls\n");
    assert_eq!(run_prog(&mut os, "which", &["nosuch"], "").0, 1);
}

// --------------------------------------------------------------------------
// Fault injection (crate::fault)
// --------------------------------------------------------------------------

use crate::fault::{FaultKind, FaultPlan, Syscall};
use crate::{retry_intr, write_fully};

#[test]
fn fault_scheduled_fires_on_exact_call() {
    let mut os = SimOs::new();
    os.set_fault_plan(Some(FaultPlan::new(1).scheduled(
        Syscall::Open,
        2,
        FaultKind::MFile,
    )));
    let a = os.open("/tmp/a", OpenMode::Write).unwrap();
    assert_eq!(os.open("/tmp/b", OpenMode::Write), Err(OsError::MFile));
    let c = os.open("/tmp/c", OpenMode::Write).unwrap();
    os.close(a).unwrap();
    os.close(c).unwrap();
    let log = os.take_fault_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].syscall, Syscall::Open);
    assert_eq!(log[0].call, 2);
    assert_eq!(log[0].kind, FaultKind::MFile);
}

#[test]
fn fault_eintr_is_injected_before_state_changes() {
    // An interrupted open must not create, truncate, or leak anything;
    // a retry loop must succeed and see the original file intact.
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/keep", b"payload").unwrap();
    let baseline = os.open_desc_count();
    os.set_fault_plan(Some(
        FaultPlan::new(2)
            .scheduled(Syscall::Open, 1, FaultKind::Intr)
            .scheduled(Syscall::Close, 1, FaultKind::Intr),
    ));
    let fd = retry_intr(|| os.open("/tmp/keep", OpenMode::Read)).unwrap();
    assert_eq!(read_all(&mut os, fd).unwrap(), b"payload");
    retry_intr(|| os.close(fd)).unwrap();
    assert_eq!(os.open_desc_count(), baseline, "no leaked descriptor");
    assert_eq!(os.take_fault_log().len(), 2);
}

#[test]
fn fault_partial_write_consumes_prefix_and_write_fully_loops() {
    let mut os = SimOs::new();
    os.set_fault_plan(Some(FaultPlan::new(3).scheduled(
        Syscall::Write,
        1,
        FaultKind::PartialWrite,
    )));
    let fd = os.open("/tmp/partial", OpenMode::Write).unwrap();
    let n = os.write(fd, b"0123456789").unwrap();
    assert!((1..10).contains(&n), "strict nonempty prefix, got {n}");
    // The hardened writer finishes the job across the fault.
    let fd2 = os.open("/tmp/full", OpenMode::Write).unwrap();
    os.set_fault_plan(Some(
        FaultPlan::new(3)
            .scheduled(Syscall::Write, 1, FaultKind::PartialWrite)
            .scheduled(Syscall::Write, 2, FaultKind::Intr),
    ));
    assert_eq!(write_fully(&mut os, fd2, b"0123456789"), Ok(10));
    os.close(fd).unwrap();
    os.close(fd2).unwrap();
    let fd = os.open("/tmp/full", OpenMode::Read).unwrap();
    assert_eq!(read_all(&mut os, fd).unwrap(), b"0123456789");
    os.close(fd).unwrap();
}

#[test]
fn fault_short_read_is_not_eof() {
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/data", b"abcdefgh").unwrap();
    os.set_fault_plan(Some(FaultPlan::new(4).scheduled(
        Syscall::Read,
        1,
        FaultKind::ShortRead,
    )));
    let fd = os.open("/tmp/data", OpenMode::Read).unwrap();
    // read_all keeps reading past the short read and sees every byte.
    assert_eq!(read_all(&mut os, fd).unwrap(), b"abcdefgh");
    os.close(fd).unwrap();
    let log = os.take_fault_log();
    assert_eq!(log[0].kind, FaultKind::ShortRead);
}

#[test]
fn fault_write_fully_reports_bytes_written_on_hard_error() {
    let mut os = SimOs::new();
    os.set_fault_plan(Some(
        FaultPlan::new(5)
            .scheduled(Syscall::Write, 1, FaultKind::PartialWrite)
            .scheduled(Syscall::Write, 2, FaultKind::NoSpc),
    ));
    let fd = os.open("/tmp/out", OpenMode::Write).unwrap();
    let err = write_fully(&mut os, fd, b"0123456789").unwrap_err();
    assert_eq!(err.cause, OsError::NoSpc(String::new()));
    assert!((1..10).contains(&err.written), "{}", err.written);
    os.close(fd).unwrap();
}

#[test]
fn fault_probabilistic_plan_replays_identically() {
    // Two runs of the same syscall trace under the same seed inject
    // byte-identically; a different seed diverges (overwhelmingly).
    fn trace(seed: u64) -> (Vec<String>, Vec<u8>) {
        let mut os = SimOs::new();
        os.set_fault_plan(Some(FaultPlan::new(seed).uniform_rate(200)));
        let mut outcomes = Vec::new();
        for i in 0..40 {
            let path = format!("/tmp/f{i}");
            match retry_intr(|| os.open(&path, OpenMode::Write)) {
                Ok(fd) => {
                    let r = write_fully(&mut os, fd, format!("line {i}\n").as_bytes());
                    outcomes.push(format!("open+write {i}: {r:?}"));
                    retry_intr(|| os.close(fd)).ok();
                }
                Err(e) => outcomes.push(format!("open {i}: {e:?}")),
            }
        }
        let log = os
            .take_fault_log()
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(";")
            .into_bytes();
        (outcomes, log)
    }
    let (a1, l1) = trace(42);
    let (a2, l2) = trace(42);
    assert_eq!(a1, a2, "outcomes replay from the seed");
    assert_eq!(l1, l2, "fault log replays from the seed");
    assert!(
        !l1.is_empty(),
        "a 20% uniform rate injects something in 40 iterations"
    );
    let (a3, _) = trace(43);
    assert_ne!(a1, a3, "different seed, different weather");
}

#[test]
fn fault_zero_rate_plan_is_inert() {
    let mut os = SimOs::new();
    os.set_fault_plan(Some(FaultPlan::new(9)));
    let (st, out) = run_prog(&mut os, "echo", &["quiet"], "");
    assert_eq!((st, out.as_str()), (0, "quiet\n"));
    assert!(os.take_fault_log().is_empty());
    assert!(
        os.fault_plan().unwrap().calls_seen() > 0,
        "plan was consulted"
    );
}

#[test]
fn signal_parse_full_alias_table() {
    let table: &[(&str, Signal)] = &[
        ("2", Signal::Int),
        ("int", Signal::Int),
        ("sigint", Signal::Int),
        ("INT", Signal::Int),
        ("SIGINT", Signal::Int),
        ("-sigint", Signal::Int),
        ("-9", Signal::Kill),
        ("9", Signal::Kill),
        ("kill", Signal::Kill),
        ("SIGKILL", Signal::Kill),
        ("15", Signal::Term),
        ("term", Signal::Term),
        ("SIGTERM", Signal::Term),
        ("1", Signal::Hup),
        ("hup", Signal::Hup),
        ("SIGHUP", Signal::Hup),
        ("3", Signal::Quit),
        ("quit", Signal::Quit),
        ("SIGQUIT", Signal::Quit),
        ("14", Signal::Alrm),
        ("alrm", Signal::Alrm),
        ("SIGALRM", Signal::Alrm),
        ("-SigAlrm", Signal::Alrm),
    ];
    for &(s, want) in table {
        assert_eq!(Signal::parse(s), Some(want), "parse({s:?})");
    }
    for bad in ["", "-", "--", "sig", "99", "sigbogus", "int9", " int"] {
        assert_eq!(Signal::parse(bad), None, "parse({bad:?}) should fail");
    }
}

#[test]
fn scheduled_signal_delivers_once_clock_reaches_it() {
    let mut os = SimOs::new();
    os.schedule_signal(500, Signal::Int);
    assert_eq!(os.take_signal(), None, "not due yet");
    os.advance_ns(499);
    assert_eq!(os.take_signal(), None, "one ns early");
    os.advance_ns(1);
    assert_eq!(os.take_signal(), Some(Signal::Int), "due at exactly 500");
    assert_eq!(os.take_signal(), None, "delivered only once");
}

#[test]
fn scheduled_signals_deliver_in_time_order_after_queued_ones() {
    let mut os = SimOs::new();
    os.schedule_signal(200, Signal::Term);
    os.schedule_signal(100, Signal::Hup);
    os.raise_signal(Signal::Int);
    os.advance_ns(1_000);
    assert_eq!(os.take_signal(), Some(Signal::Int), "queued signals first");
    assert_eq!(
        os.take_signal(),
        Some(Signal::Hup),
        "then earliest scheduled"
    );
    assert_eq!(os.take_signal(), Some(Signal::Term));
    assert_eq!(os.take_signal(), None);
}

// --------------------------------------------------------------------------
// Multi-input text programs (paste, comm) — output formats follow GNU
// coreutils byte-for-byte so the differential conformance oracle can
// compare them directly against the real binaries.
// --------------------------------------------------------------------------

#[test]
fn paste_merges_corresponding_lines_with_tabs() {
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/p1", b"a\nb\nc\n").unwrap();
    os.vfs_mut().put_file("/tmp/p2", b"x\ny\n").unwrap();
    let (status, out) = run_prog(&mut os, "paste", &["/tmp/p1", "/tmp/p2"], "");
    assert_eq!(status, 0);
    // The exhausted second file still contributes an (empty) field.
    assert_eq!(out, "a\tx\nb\ty\nc\t\n");
}

#[test]
fn paste_custom_delimiters_cycle() {
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/p1", b"a\nb\n").unwrap();
    os.vfs_mut().put_file("/tmp/p2", b"x\ny\n").unwrap();
    let (status, out) = run_prog(&mut os, "paste", &["-d", ":", "/tmp/p1", "/tmp/p2"], "");
    assert_eq!(status, 0);
    assert_eq!(out, "a:x\nb:y\n");
    let (status, out) = run_prog(
        &mut os,
        "paste",
        &["-d", ":;", "/tmp/p1", "/tmp/p2", "/tmp/p1"],
        "",
    );
    assert_eq!(status, 0, "delimiter list cycles across three columns");
    assert_eq!(out, "a:x;a\nb:y;b\n");
}

#[test]
fn paste_serial_joins_each_file_on_one_line() {
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/p1", b"a\nb\nc\n").unwrap();
    os.vfs_mut().put_file("/tmp/p2", b"x\ny\n").unwrap();
    let (status, out) = run_prog(&mut os, "paste", &["-s", "/tmp/p1", "/tmp/p2"], "");
    assert_eq!(status, 0);
    assert_eq!(out, "a\tb\tc\nx\ty\n");
}

#[test]
fn paste_reads_stdin_for_dash_and_no_operands() {
    let mut os = SimOs::new();
    let (status, out) = run_prog(&mut os, "paste", &[], "one\ntwo\n");
    assert_eq!(status, 0);
    assert_eq!(out, "one\ntwo\n");
    os.vfs_mut().put_file("/tmp/p1", b"a\nb\n").unwrap();
    let (status, out) = run_prog(&mut os, "paste", &["/tmp/p1", "-"], "one\ntwo\n");
    assert_eq!(status, 0);
    assert_eq!(out, "a\tone\nb\ttwo\n");
}

#[test]
fn paste_missing_file_fails() {
    let mut os = SimOs::new();
    let (status, _) = run_prog(&mut os, "paste", &["/tmp/nope"], "");
    assert_eq!(status, 1);
}

#[test]
fn comm_three_columns_with_tab_indents() {
    let mut os = SimOs::new();
    os.vfs_mut()
        .put_file("/tmp/c1", b"apple\nbanana\ncherry\n")
        .unwrap();
    os.vfs_mut().put_file("/tmp/c2", b"banana\ndate\n").unwrap();
    let (status, out) = run_prog(&mut os, "comm", &["/tmp/c1", "/tmp/c2"], "");
    assert_eq!(status, 0);
    assert_eq!(out, "apple\n\t\tbanana\ncherry\n\tdate\n");
}

#[test]
fn comm_suppression_flags_shrink_indentation() {
    let mut os = SimOs::new();
    os.vfs_mut()
        .put_file("/tmp/c1", b"apple\nbanana\ncherry\n")
        .unwrap();
    os.vfs_mut().put_file("/tmp/c2", b"banana\ndate\n").unwrap();
    let case =
        |os: &mut SimOs, flags: &str| run_prog(os, "comm", &[flags, "/tmp/c1", "/tmp/c2"], "").1;
    assert_eq!(
        case(&mut os, "-12"),
        "banana\n",
        "only the common column, unindented"
    );
    assert_eq!(case(&mut os, "-3"), "apple\ncherry\n\tdate\n");
    assert_eq!(case(&mut os, "-23"), "apple\ncherry\n");
    assert_eq!(
        case(&mut os, "-1"),
        "\tbanana\ndate\n",
        "col2 bare, col3 one tab"
    );
    let (status, _) = run_prog(&mut os, "comm", &["/tmp/c1"], "");
    assert_eq!(status, 1, "comm needs exactly two operands");
}

#[test]
fn comm_reads_stdin_for_dash() {
    let mut os = SimOs::new();
    os.vfs_mut().put_file("/tmp/c1", b"a\nm\nz\n").unwrap();
    let (status, out) = run_prog(&mut os, "comm", &["/tmp/c1", "-"], "m\n");
    assert_eq!(status, 0);
    assert_eq!(out, "a\n\t\tm\nz\n");
}

// ----- kernel fingerprint (the serving pool's reset oracle) ----------------

/// The fingerprint is a pure function of kernel state: two kernels
/// driven through the same operations digest identically, and a fresh
/// boot always digests the same.
#[test]
fn fingerprint_is_deterministic_across_same_ops() {
    assert_eq!(SimOs::new().fingerprint(), SimOs::new().fingerprint());
    let drive = || {
        let mut os = SimOs::new();
        let fd = os.open("/tmp/fp", OpenMode::Write).unwrap();
        write_all(&mut os, fd, b"same bytes\n").unwrap();
        os.close(fd).unwrap();
        os.advance_ns(1_000);
        run_prog(&mut os, "echo", &["hello"], "");
        os.fingerprint()
    };
    assert_eq!(drive(), drive());
}

/// Every tenant-observable mutation moves the digest: file contents,
/// a dangling open descriptor, buffered console bytes, and the clock
/// each produce a distinct fingerprint. This is what lets the pool
/// audit a recycled slot against its boot image with one comparison.
#[test]
fn fingerprint_is_sensitive_to_observable_state() {
    let boot = SimOs::new().fingerprint();
    let mut seen = vec![boot];
    let mut check = |os: &SimOs, what: &str| {
        let fp = os.fingerprint();
        assert!(!seen.contains(&fp), "{what} did not change the fingerprint");
        seen.push(fp);
    };

    let mut os = SimOs::new();
    let fd = os.open("/tmp/dirt", OpenMode::Write).unwrap();
    write_all(&mut os, fd, b"residue").unwrap();
    check(&os, "writing a file (with its fd still open)");
    os.close(fd).unwrap();
    check(&os, "closing the fd (file remains)");

    let mut os = SimOs::new();
    let _leak = os.open("/bin/echo", OpenMode::Read).unwrap();
    check(&os, "leaking an open descriptor");

    let mut os = SimOs::new();
    write_all(&mut os, crate::STDERR, b"unclaimed warning").unwrap();
    check(&os, "buffered console stderr");

    let mut os = SimOs::new();
    os.advance_ns(1);
    check(&os, "advancing the virtual clock");
}

/// Asserts that the table-by-table compare and the fingerprints both
/// tell `a` from `b`.
fn differ(a: &SimOs, b: &SimOs, what: &str) {
    assert!(
        !a.same_state(b) && !b.same_state(a),
        "the compare missed {what}"
    );
    assert_ne!(
        a.fingerprint(),
        b.fingerprint(),
        "the fingerprint missed {what}"
    );
}

/// The serving pool's audit compares each table instead of hashing
/// the kernel. Every observable change makes the compare false, both
/// against the clone it started from, which shares the filesystem and
/// the process table by `Rc`, and against a kernel built separately,
/// which shares nothing. The consoles and a live pipe are checked with
/// two buffers of the same length, so a length check alone would not
/// do.
#[test]
fn kernel_compare_is_sensitive_to_every_table() {
    assert!(
        SimOs::new().same_state(&SimOs::new()),
        "two fresh kernels differ"
    );
    type Change = fn(&mut SimOs);
    let changes: &[(&str, Change)] = &[
        ("a file write", |os| {
            os.vfs_mut().put_file("/tmp/dirt", b"residue").unwrap();
        }),
        ("a dangling fd", |os| {
            os.open("/bin/echo", OpenMode::Read).unwrap();
        }),
        ("bytes in the stdin console", |os| os.push_input("x")),
        ("bytes in the stdout console", |os| {
            write_all(os, STDOUT, b"x").unwrap();
        }),
        ("bytes in the stderr console", |os| {
            write_all(os, crate::STDERR, b"x").unwrap();
        }),
        ("a clock move", |os| os.advance_ns(1)),
        ("a pid-counter move", |os| {
            run_prog(os, "true", &[], "");
        }),
        ("a queued signal", |os| os.raise_signal(Signal::Int)),
        ("a scheduled signal", |os| {
            os.schedule_signal(5, Signal::Int)
        }),
        ("a live pipe holding bytes", |os| {
            let (_, w) = os.pipe().unwrap();
            write_all(os, w, b"x").unwrap();
        }),
        ("a kill of a process row", |os| {
            assert_eq!(os.kill_pids(&[4523], Signal::Term), 1);
        }),
        ("a cwd change", |os| os.chdir("/tmp").unwrap()),
    ];
    for (what, change) in changes {
        let boot = SimOs::new();
        let mut os = boot.clone();
        assert!(os.same_state(&boot), "a clone differs before {what}");
        change(&mut os);
        differ(&os, &boot, what);
        differ(&os, &SimOs::new(), what);
    }

    // Same lengths, different bytes.
    for fd in [STDOUT, crate::STDERR] {
        let (mut a, mut b) = (SimOs::new(), SimOs::new());
        write_all(&mut a, fd, b"abc").unwrap();
        write_all(&mut b, fd, b"abd").unwrap();
        differ(&a, &b, "console bytes of the same length");
    }
    let (mut a, mut b) = (SimOs::new(), SimOs::new());
    a.push_input("abc");
    b.push_input("abd");
    differ(&a, &b, "stdin bytes of the same length");

    // A pipe's bytes count while it has a live end, and not once both
    // ends are closed: the row only waits to be reused.
    let (mut a, mut b) = (SimOs::new(), SimOs::new());
    let ends = [a.pipe().unwrap(), b.pipe().unwrap()];
    write_all(&mut a, ends[0].1, b"abc").unwrap();
    write_all(&mut b, ends[1].1, b"abd").unwrap();
    differ(&a, &b, "pipe bytes of the same length");
    for (os, (r, w)) in [(&mut a, ends[0]), (&mut b, ends[1])] {
        os.close(w).unwrap();
        os.close(r).unwrap();
    }
    assert!(a.same_state(&b), "a fully closed pipe row was compared");
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// The descriptor model both kernels share, checked through the `Os`
/// trait alone, so that one test holds both kernels to it: EPIPE,
/// refcounted `dup` and `close` on a pipe and on a file at `path`,
/// reuse of closed pipe rows, and the captured console. The kernel
/// must capture its console; `real_tests` runs this on `RealOs`.
pub(crate) fn check_descriptor_semantics<O: Os>(
    os: &mut O,
    path: &str,
    pipe_rows: fn(&O) -> usize,
) {
    let baseline = os.open_desc_count();
    // A pipe carries bytes, and its closed writer reads as end-of-file.
    let (r, w) = os.pipe().unwrap();
    write_all(os, w, b"through").unwrap();
    os.close(w).unwrap();
    assert_eq!(read_all(os, r).unwrap(), b"through");
    os.close(r).unwrap();
    // A dup'd reader keeps the pipe writable; once the last reader is
    // closed, a write is EPIPE.
    let (r, w) = os.pipe().unwrap();
    let r2 = os.dup(r).unwrap();
    assert_eq!(r2, r, "dup shares the open description");
    os.close(r).unwrap();
    write_all(os, w, b"kept").unwrap();
    assert_eq!(read_all(os, r2).unwrap(), b"kept");
    os.close(r2).unwrap();
    assert_eq!(os.write(w, b"x"), Err(OsError::Pipe));
    os.close(w).unwrap();
    // `close` is refcounted on a file too: one reference keeps it
    // writable, and the last frees the slot, after which the
    // descriptor is EBADF.
    let fd = os.open(path, OpenMode::Write).unwrap();
    let dup = os.dup(fd).unwrap();
    assert_eq!(os.open_desc_count(), baseline + 1);
    os.close(fd).unwrap();
    write_all(os, dup, b"still open\n").unwrap();
    os.close(dup).unwrap();
    assert_eq!(os.open_desc_count(), baseline);
    assert_eq!(os.write(fd, b"x"), Err(OsError::BadF));
    assert_eq!(os.close(fd), Err(OsError::BadF));
    // A pipe row is reused once both its ends are closed, so opening
    // and closing pipes forever keeps the table as large as the most
    // pipes ever open at once (the REPL and long served sessions open
    // one per pipeline or backquote).
    let rows = pipe_rows(os);
    let mut most_open = 0;
    for i in 0..10_000 {
        let width = 1 + i % 3;
        let ends: Vec<_> = (0..width).map(|_| os.pipe().unwrap()).collect();
        most_open = most_open.max(width);
        write_all(os, ends[0].1, b"left behind").unwrap();
        // Close in a varying order, with an extra dup'd reader.
        let extra = os.dup(ends[width - 1].0).unwrap();
        for &(r, w) in ends.iter().rev() {
            os.close(w).unwrap();
            os.close(r).unwrap();
        }
        os.close(extra).unwrap();
    }
    assert!(
        pipe_rows(os) <= rows.max(most_open),
        "{} rows",
        pipe_rows(os)
    );
    // A reused row starts empty: the bytes left behind are gone.
    let (r, w) = os.pipe().unwrap();
    os.close(w).unwrap();
    assert_eq!(read_all(os, r).unwrap(), b"");
    os.close(r).unwrap();
    assert!(pipe_rows(os) <= rows.max(most_open));
    assert_eq!(os.open_desc_count(), baseline);
    // The captured console is taken and cleared.
    write_all(os, STDOUT, b"to stdout\n").unwrap();
    write_all(os, crate::STDERR, b"to stderr\n").unwrap();
    let (out, err) = os.take_console();
    assert_eq!((out.as_str(), err.as_str()), ("to stdout\n", "to stderr\n"));
    assert_eq!(os.take_console(), (String::new(), String::new()));
}

#[test]
fn descriptor_semantics_on_sim_os() {
    check_descriptor_semantics(&mut SimOs::new(), "/tmp/refcount", SimOs::pipe_rows);
}

// ----- the shared filesystem and its digest --------------------------------

/// Every `Vfs` mutator, called directly or from a `/bin` program
/// through `ProcCtx::vfs_mut`, moves the digest.
#[test]
fn every_vfs_mutator_moves_the_digest() {
    type Step = (&'static str, fn(&mut SimOs));
    let steps: &[Step] = &[
        ("create_file", |os| {
            os.vfs_mut().create_file("/tmp/d", "/", true).unwrap();
        }),
        ("write_at", |os| {
            let ino = os.vfs().lookup("/tmp/d", "/").unwrap();
            os.vfs_mut().write_at(ino, 0, b"bytes");
        }),
        ("truncate", |os| {
            let ino = os.vfs().lookup("/tmp/d", "/").unwrap();
            os.vfs_mut().truncate(ino);
        }),
        ("mkdir", |os| {
            os.vfs_mut().mkdir("sub", "/tmp").unwrap();
        }),
        ("mkdir_all", |os| {
            os.vfs_mut().mkdir_all("/tmp/sub/a/b").unwrap();
        }),
        ("put_file", |os| {
            os.vfs_mut().put_file("/tmp/sub/a/f", b"x").unwrap();
        }),
        ("set_executable", |os| {
            os.vfs_mut().set_executable("/tmp/sub/a/f", true).unwrap();
        }),
        ("put_program", |os| {
            os.vfs_mut().put_program("/usr/bin/cat2", "cat").unwrap();
        }),
        ("unlink", |os| {
            os.vfs_mut().unlink("/tmp/sub/a/f", "/").unwrap();
        }),
        ("rmdir", |os| {
            os.vfs_mut().rmdir("/tmp/sub/a/b", "/").unwrap();
        }),
        ("/bin/mkdir", |os| {
            assert_eq!(run_prog(os, "mkdir", &["-p", "/tmp/m/n"], "").0, 0);
        }),
        ("/bin/rm", |os| {
            assert_eq!(run_prog(os, "rm", &["/tmp/d"], "").0, 0);
        }),
    ];
    let mut os = SimOs::new();
    for (what, step) in steps {
        let before = os.vfs().digest();
        step(&mut os);
        let moved = os.vfs().digest();
        assert_ne!(moved, before, "{what} did not move the digest");
    }
}

/// Writing through one of two kernels that share a filesystem leaves
/// the other's files and fingerprint as they were, whichever of the
/// two is the clone.
#[test]
fn cloned_kernels_do_not_see_each_others_writes() {
    const MOTD: &[u8] = b"welcome to the es simulation\n";
    fn motd(os: &SimOs) -> &[u8] {
        os.vfs()
            .file_data(os.vfs().lookup("/etc/motd", "/").unwrap())
    }
    fn scribble(os: &mut SimOs) {
        let fd = os.open("/tmp/new", OpenMode::Write).unwrap();
        write_all(os, fd, b"written").unwrap();
        os.close(fd).unwrap();
        // Write a boot inode in place before unlinking it: the clone
        // shares that inode until this first write.
        let ino = os.vfs().lookup("/etc/motd", "/").unwrap();
        os.vfs_mut().write_at(ino, 0, b"overwritten");
        assert!(motd(os).starts_with(b"overwritten"));
        os.vfs_mut().truncate(ino);
        assert_eq!(motd(os), b"");
        os.vfs_mut().unlink("/etc/motd", "/").unwrap();
        os.vfs_mut().mkdir("/tmp/dir", "/").unwrap();
    }
    for clone_writes in [true, false] {
        let mut a = SimOs::new();
        let before = a.fingerprint();
        let mut b = a.clone();
        let (writer, reader) = if clone_writes {
            (&mut b, &a)
        } else {
            (&mut a, &b)
        };
        scribble(writer);
        assert!(writer.is_file("/tmp/new") && writer.is_dir("/tmp/dir"));
        assert!(!writer.is_file("/etc/motd"));
        assert_ne!(writer.fingerprint(), before);
        assert!(!reader.is_file("/tmp/new"));
        assert!(!reader.is_dir("/tmp/dir"));
        assert!(reader.is_file("/etc/motd"));
        assert_eq!(motd(reader), MOTD, "clone_writes={clone_writes}");
        assert_eq!(reader.fingerprint(), before, "clone_writes={clone_writes}");
    }
}
