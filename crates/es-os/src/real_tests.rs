//! Tests for the real-OS backend (run against a temp directory and
//! real /bin tools where available).

use crate::{read_all, write_all, OpenMode, Os, RealOs};

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("es-real-test-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[test]
fn real_file_roundtrip() {
    let mut os = RealOs::new();
    let path = tmpdir().join("roundtrip.txt");
    let path = path.to_str().unwrap();
    let fd = os.open(path, OpenMode::Write).unwrap();
    write_all(&mut os, fd, b"real bytes\n").unwrap();
    os.close(fd).unwrap();
    let fd = os.open(path, OpenMode::Read).unwrap();
    assert_eq!(read_all(&mut os, fd).unwrap(), b"real bytes\n");
    os.close(fd).unwrap();
    let fd = os.open(path, OpenMode::Append).unwrap();
    write_all(&mut os, fd, b"more\n").unwrap();
    os.close(fd).unwrap();
    let fd = os.open(path, OpenMode::Read).unwrap();
    assert_eq!(read_all(&mut os, fd).unwrap(), b"real bytes\nmore\n");
    os.close(fd).unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn real_missing_file_is_enoent() {
    let mut os = RealOs::new();
    let err = os.open("/definitely/not/here", OpenMode::Read).unwrap_err();
    assert_eq!(err.strerror(), "No such file or directory");
}

#[test]
fn real_pipes_buffer() {
    let mut os = RealOs::new();
    let (r, w) = os.pipe().unwrap();
    write_all(&mut os, w, b"through").unwrap();
    os.close(w).unwrap();
    assert_eq!(read_all(&mut os, r).unwrap(), b"through");
}

/// Closed pipes give their rows back: the table never grows past the
/// most pipes ever open at once, and a reused row starts empty.
#[test]
fn real_pipe_rows_are_reused_once_closed() {
    let mut os = RealOs::new();
    let mut most_open = 0;
    for i in 0..10_000 {
        let width = 1 + i % 3;
        let ends: Vec<_> = (0..width).map(|_| os.pipe().unwrap()).collect();
        most_open = most_open.max(width);
        write_all(&mut os, ends[0].1, b"left behind").unwrap();
        // Close in a varying order, with an extra dup'd reader.
        let extra = os.dup(ends[width - 1].0).unwrap();
        for &(r, w) in ends.iter().rev() {
            os.close(w).unwrap();
            os.close(r).unwrap();
        }
        os.close(extra).unwrap();
    }
    assert!(os.pipe_rows() <= most_open, "{} rows", os.pipe_rows());
    let (r, w) = os.pipe().unwrap();
    os.close(w).unwrap();
    assert_eq!(read_all(&mut os, r).unwrap(), b"");
    os.close(r).unwrap();
    assert!(os.pipe_rows() <= most_open);
}

#[test]
fn real_dup_close_refcounting() {
    let mut os = RealOs::new();
    let baseline = os.open_desc_count();
    let path = tmpdir().join("refcount.txt");
    let path = path.to_str().unwrap();
    let fd = os.open(path, OpenMode::Write).unwrap();
    let dup = os.dup(fd).unwrap();
    assert_eq!(dup, fd, "dup shares the open-file description");
    assert_eq!(os.open_desc_count(), baseline + 1);
    os.close(fd).unwrap();
    // One reference remains: the descriptor must still be writable.
    write_all(&mut os, dup, b"still open\n").unwrap();
    os.close(dup).unwrap();
    assert_eq!(os.open_desc_count(), baseline);
    // Fully closed now: further I/O is EBADF.
    assert!(os.write(fd, b"x").is_err());
    assert!(os.close(fd).is_err());
    let _ = std::fs::remove_file(path);
}

/// The descriptor model, held to the same test as on `SimOs`: a write
/// to a pipe with no reader is EPIPE here too.
#[test]
fn real_descriptor_semantics() {
    let mut os = RealOs::new();
    os.set_capture(true);
    let path = tmpdir().join("descriptor-semantics.txt");
    let path = path.to_str().unwrap();
    crate::tests::check_descriptor_semantics(&mut os, path, RealOs::pipe_rows);
    let _ = std::fs::remove_file(path);
}

#[test]
fn real_fs_inspection() {
    let os = RealOs::new();
    assert!(os.is_dir("/"));
    assert!(!os.is_file("/"));
    let names = os.read_dir("/").unwrap();
    assert!(!names.is_empty());
}

#[cfg(unix)]
#[test]
fn real_run_external_program() {
    let mut os = RealOs::new();
    if !os.is_executable("/bin/echo") {
        return; // minimal containers may lack it
    }
    let (r, w) = os.pipe().unwrap();
    let status = os
        .run(
            &["/bin/echo".into(), "real".into(), "exec".into()],
            &[("PATH".into(), "/bin".into())],
            &[(1, w)],
        )
        .unwrap();
    os.close(w).unwrap();
    assert_eq!(status, 0);
    assert_eq!(read_all(&mut os, r).unwrap(), b"real exec\n");
}

#[test]
fn real_clock_advances() {
    let os = RealOs::new();
    let a = os.now_ns();
    let b = os.now_ns();
    assert!(b >= a);
}

#[cfg(unix)]
#[test]
fn real_multi_stage_pipeline() {
    // tr a-z A-Z | sort -r, staged through two buffer pipes exactly
    // the way the shell's %pipe primitive lays out descriptors.
    let mut os = RealOs::new();
    if !os.is_executable("/usr/bin/tr") || !os.is_executable("/usr/bin/sort") {
        return;
    }
    let (r1, w1) = os.pipe().unwrap();
    write_all(&mut os, w1, b"pear\napple\nmango\n").unwrap();
    os.close(w1).unwrap();
    let (r2, w2) = os.pipe().unwrap();
    let st = os
        .run(
            &["/usr/bin/tr".into(), "a-z".into(), "A-Z".into()],
            &[],
            &[(0, r1), (1, w2)],
        )
        .unwrap();
    assert_eq!(st, 0);
    os.close(r1).unwrap();
    os.close(w2).unwrap();
    let (r3, w3) = os.pipe().unwrap();
    let st = os
        .run(
            &["/usr/bin/sort".into(), "-r".into()],
            &[],
            &[(0, r2), (1, w3)],
        )
        .unwrap();
    assert_eq!(st, 0);
    os.close(r2).unwrap();
    os.close(w3).unwrap();
    assert_eq!(read_all(&mut os, r3).unwrap(), b"PEAR\nMANGO\nAPPLE\n");
    os.close(r3).unwrap();
}

#[cfg(unix)]
#[test]
fn real_append_redirection_through_run() {
    // Two child processes appending to the same descriptor must
    // accumulate, not truncate (>> semantics).
    let mut os = RealOs::new();
    if !os.is_executable("/bin/echo") {
        return;
    }
    let path = tmpdir().join("append-run.txt");
    let _ = std::fs::remove_file(&path);
    let path = path.to_str().unwrap().to_string();
    let fd = os.open(&path, OpenMode::Append).unwrap();
    for word in ["first", "second"] {
        let st = os
            .run(&["/bin/echo".into(), word.into()], &[], &[(1, fd)])
            .unwrap();
        assert_eq!(st, 0);
    }
    os.close(fd).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"first\nsecond\n");
    let _ = std::fs::remove_file(&path);
}

#[cfg(unix)]
#[test]
fn real_run_exit_status_propagation() {
    let mut os = RealOs::new();
    if !os.is_executable("/bin/sh") {
        return;
    }
    for (script, expect) in [("exit 0", 0), ("exit 1", 1), ("exit 7", 7), ("exit 42", 42)] {
        let st = os
            .run(&["/bin/sh".into(), "-c".into(), script.into()], &[], &[])
            .unwrap();
        assert_eq!(st, expect, "sh -c '{script}'");
    }
    // A missing binary is ENOENT, not a status.
    let err = os
        .run(&["/definitely/not/a/binary".into()], &[], &[])
        .unwrap_err();
    assert_eq!(err.strerror(), "No such file or directory");
}

#[test]
fn real_clone_carries_file_descriptors() {
    // Regression: clone() used to drop file-backed descriptors, so
    // redirections inside `fork {...}` lost their targets on RealOs.
    let mut os = RealOs::new();
    let path = tmpdir().join("clone-carry.txt");
    let path = path.to_str().unwrap().to_string();
    let fd = os.open(&path, OpenMode::Write).unwrap();
    write_all(&mut os, fd, b"parent|").unwrap();
    let mut child = os.clone();
    write_all(&mut child, fd, b"child|").unwrap();
    os.absorb_fork(child);
    write_all(&mut os, fd, b"parent again\n").unwrap();
    os.close(fd).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        b"parent|child|parent again\n"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn real_clone_preserves_read_offset() {
    let mut os = RealOs::new();
    let path = tmpdir().join("clone-offset.txt");
    std::fs::write(&path, b"0123456789").unwrap();
    let path = path.to_str().unwrap();
    let fd = os.open(path, OpenMode::Read).unwrap();
    let mut buf = [0u8; 4];
    assert_eq!(os.read(fd, &mut buf).unwrap(), 4);
    assert_eq!(&buf, b"0123");
    // The clone's cursor continues where the parent's stopped.
    let mut child = os.clone();
    assert_eq!(read_all(&mut child, fd).unwrap(), b"456789");
    os.close(fd).unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn real_capture_mode_console() {
    use crate::{STDERR, STDIN, STDOUT};
    let mut os = RealOs::new();
    os.set_capture(true);
    os.push_input("typed input\n");
    assert_eq!(read_all(&mut os, STDIN).unwrap(), b"typed input\n");
    write_all(&mut os, STDOUT, b"to stdout\n").unwrap();
    write_all(&mut os, STDERR, b"to stderr\n").unwrap();
    let (out, err) = os.take_console();
    assert_eq!(out, "to stdout\n");
    assert_eq!(err, "to stderr\n");
    // Buffers drain on take.
    assert_eq!(os.take_console(), (String::new(), String::new()));
}

#[cfg(unix)]
#[test]
fn real_capture_mode_run_lands_in_buffers() {
    use crate::{STDERR, STDOUT};
    let mut os = RealOs::new();
    if !os.is_executable("/bin/sh") {
        return;
    }
    os.set_capture(true);
    let st = os
        .run(
            &[
                "/bin/sh".into(),
                "-c".into(),
                "echo out; echo err >&2".into(),
            ],
            &[],
            &[(1, STDOUT), (2, STDERR)],
        )
        .unwrap();
    assert_eq!(st, 0);
    let (out, err) = os.take_console();
    assert_eq!(out, "out\n");
    assert_eq!(err, "err\n");
}

#[test]
fn real_cwd_is_per_instance() {
    let dir = tmpdir();
    let sub = dir.join("cwd-a");
    let _ = std::fs::create_dir_all(&sub);
    let mut a = RealOs::new();
    let b = RealOs::new();
    let before = b.cwd();
    a.chdir(sub.to_str().unwrap()).unwrap();
    assert_eq!(a.cwd(), sub.to_str().unwrap());
    // Changing directory in one kernel must not leak into another
    // (chdir is tracked per instance, not via set_current_dir).
    assert_eq!(b.cwd(), before);
    // Relative paths resolve against the instance cwd...
    std::fs::write(sub.join("rel.txt"), b"relative\n").unwrap();
    let mut a2 = a.clone();
    let fd = a2.open("rel.txt", OpenMode::Read).unwrap();
    assert_eq!(read_all(&mut a2, fd).unwrap(), b"relative\n");
    a2.close(fd).unwrap();
    // ...and dot-dot normalizes lexically.
    a.chdir("..").unwrap();
    assert_eq!(a.cwd(), dir.to_str().unwrap());
    // chdir to a non-directory fails without changing anything.
    assert!(a.chdir("rel-missing-dir").is_err());
    assert_eq!(a.cwd(), dir.to_str().unwrap());
}
