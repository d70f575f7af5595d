//! Black-box tests of the `es` binary itself (simulated kernel mode):
//! the REPL over a pty-less stdin, `-c`, script files, and flags.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// Path of the compiled `es` binary (cargo builds bin deps for
/// integration tests of the same workspace... it does not, so build it
/// on demand the first time). The build lands in `$CARGO_TARGET_DIR`
/// when that is set, else in the workspace's `target/`.
fn es_binary() -> &'static Path {
    static BINARY: OnceLock<PathBuf> = OnceLock::new();
    BINARY.get_or_init(|| {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-p", "es-shell"])
            .status()
            .expect("cargo runs");
        assert!(status.success(), "es-shell builds");
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
        target.join("debug").join("es")
    })
}

fn run_es(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(es_binary())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("es starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("stdin written");
    let out = child.wait_with_output().expect("es exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn repl_echo_session() {
    let (out, err, status) = run_es(&[], "echo hello, world\nexit 0\n");
    assert!(out.contains("hello, world"), "stdout: {out} stderr: {err}");
    assert_eq!(status, 0);
}

#[test]
fn dash_c_runs_one_command() {
    let (out, _, status) = run_es(&["-c", "echo from dash c"], "");
    assert_eq!(out, "from dash c\n");
    assert_eq!(status, 0);
}

#[test]
fn dash_c_reports_errors() {
    let (_, err, status) = run_es(&["-c", "no-such-program"], "");
    assert!(err.contains("command not found"), "{err}");
    assert_eq!(status, 1);
}

#[test]
fn exit_status_propagates() {
    let (_, _, status) = run_es(&[], "exit 42\n");
    assert_eq!(status, 42);
}

#[test]
fn dash_c_exits_with_the_status_of_exit_silently() {
    let (out, err, status) = run_es(&["-c", "exit 3"], "");
    assert_eq!((out.as_str(), err.as_str(), status), ("", "", 3));
}

/// `-c`, a script and the interactive loop all exit with the truth of
/// the last command's value.
#[test]
fn the_last_value_sets_the_status_everywhere() {
    for (line, want) in [("false", 1), ("true", 0), ("result 0", 0), ("result 7", 1)] {
        let (_, err, status) = run_es(&["-c", line], "");
        assert_eq!(status, want, "-c {line}: {err}");
        let (_, err, status) = run_es(&[], &format!("{line}\n"));
        assert_eq!(status, want, "stdin {line}: {err}");
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for (body, want) in [("false", 1), ("true", 0), ("exit 4", 4)] {
        let script = dir.join(format!("status-{want}.es"));
        std::fs::write(&script, format!("{body}\n")).expect("script written");
        let path = script.to_str().expect("a UTF-8 path");
        let (_, err, status) = run_es(&["--real", path], "");
        assert_eq!(status, want, "script {body}: {err}");
    }
}

#[test]
fn pipeline_and_spoof_through_binary() {
    let session =
        "let (create = $fn-%create) fn %create fd file cmd { throw error writes disabled }\n\
                   echo try > /tmp/blocked\n\
                   echo one two three | wc -w\n\
                   exit 0\n";
    let (out, err, status) = run_es(&[], session);
    assert!(err.contains("writes disabled"), "spoof fired: {err}");
    assert!(out.contains('3'), "pipeline ran: {out}");
    assert_eq!(status, 0);
}

#[test]
fn naive_calls_flag_limits_recursion() {
    let (_, err, _) = run_es(
        &["--naive-calls", "-c", "fn loop n { loop $n }; loop x"],
        "",
    );
    assert!(
        err.contains("limit depth"),
        "depth guard fires in naive mode: {err}"
    );
}

#[test]
fn limit_flag_arms_budget_and_breach_is_reported() {
    let (_, err, status) = run_es(&["--limit", "steps=1000", "-c", "forever {true}"], "");
    assert!(err.contains("limit steps"), "step budget fired: {err}");
    assert_eq!(status, 1);
    // Bad specs are rejected up front with a usage-style error.
    let (_, err, status) = run_es(&["--limit", "bogus=1", "-c", "true"], "");
    assert!(err.contains("unknown limit kind"), "{err}");
    assert_eq!(status, 2);
    let (_, err, status) = run_es(&["--limit", "steps", "-c", "true"], "");
    assert!(err.contains("KIND=N"), "{err}");
    assert_eq!(status, 2);
}

/// `es serve` refuses an unknown `--limit` kind at start-up, before
/// any session opens.
#[test]
fn serve_rejects_unknown_limit_kind() {
    let (_, err, status) = run_es(&["serve", "--limit", "bogons=5"], "");
    assert_eq!(status, 2);
    assert!(err.contains("unknown limit kind 'bogons'"), "stderr: {err}");
}

#[test]
fn dump_env_lists_functions() {
    let (out, _, status) = run_es(&["--dump-env"], "");
    assert_eq!(status, 0);
    assert!(out.contains("fn-%pipe=$&pipe"), "{out}");
    assert!(out.contains("fn-%interactive-loop="), "{out}");
}

#[test]
fn repl_survives_errors_and_keeps_going() {
    let (out, err, status) = run_es(&[], "bogus\necho survived\nexit 0\n");
    assert!(err.contains("command not found"), "{err}");
    assert!(out.contains("survived"), "{out}");
    assert_eq!(status, 0);
}

#[test]
fn stress_gc_mode_runs_clean() {
    let (out, _, status) = run_es(
        &[
            "--stress-gc",
            "-c",
            "for (i = 1 2 3) { x = $x <>{result $i} }; echo $x",
        ],
        "",
    );
    assert_eq!(out, "1 2 3\n");
    assert_eq!(status, 0);
}
