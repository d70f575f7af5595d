//! Filesystem programs: ls, mkdir, rmdir, rm, touch, cp, mv, test,
//! basename, dirname, pwd.

use super::{ProcCtx, ProgramFn};
use std::collections::BTreeMap;

pub(super) fn install(map: &mut BTreeMap<&'static str, ProgramFn>) {
    map.insert("ls", ls);
    map.insert("mkdir", mkdir);
    map.insert("rmdir", rmdir);
    map.insert("rm", rm);
    map.insert("touch", touch);
    map.insert("cp", cp);
    map.insert("mv", mv);
    map.insert("test", test);
    map.insert("[", test);
    map.insert("basename", basename);
    map.insert("dirname", dirname);
    map.insert("pwd", pwd);
}

/// `ls [-a] [path...]` — list directory contents, one name per line
/// (the form every pipeline consumer wants).
fn ls(ctx: &mut ProcCtx) -> i32 {
    let mut all = false;
    let mut paths = Vec::new();
    for arg in ctx.args().to_vec() {
        match arg.as_str() {
            "-a" => all = true,
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() {
        paths.push(ctx.cwd());
    }
    let mut status = 0;
    let many = paths.len() > 1;
    let cwd = ctx.cwd();
    for (i, path) in paths.iter().enumerate() {
        if ctx.vfs().lookup(path, &cwd).is_ok() && !ctx.vfs().is_dir(path, &cwd) {
            ctx.out(&format!("{path}\n"));
            continue;
        }
        match ctx.vfs().read_dir(path, &cwd) {
            Ok(names) => {
                if many {
                    if i > 0 {
                        ctx.out("\n");
                    }
                    ctx.out(&format!("{path}:\n"));
                }
                let mut out = String::new();
                if all {
                    out.push_str(".\n..\n");
                }
                for name in names {
                    if !all && name.starts_with('.') {
                        continue;
                    }
                    out.push_str(&name);
                    out.push('\n');
                }
                let _ = ctx.write_fd(1, out.as_bytes());
            }
            Err(e) => {
                status = ctx.fail(&e.to_string());
            }
        }
    }
    status
}

/// `mkdir [-p] dir...`.
fn mkdir(ctx: &mut ProcCtx) -> i32 {
    let mut parents = false;
    let mut dirs = Vec::new();
    for arg in ctx.args().to_vec() {
        match arg.as_str() {
            "-p" => parents = true,
            other => dirs.push(other.to_string()),
        }
    }
    if dirs.is_empty() {
        return ctx.fail("missing operand");
    }
    let cwd = ctx.cwd();
    let mut status = 0;
    for dir in &dirs {
        let result = if parents {
            let abs = if dir.starts_with('/') {
                dir.clone()
            } else {
                format!("{}/{}", cwd.trim_end_matches('/'), dir)
            };
            ctx.vfs_mut().mkdir_all(&abs).map(|_| ())
        } else {
            ctx.vfs_mut().mkdir(dir, &cwd).map(|_| ())
        };
        if let Err(e) = result {
            status = ctx.fail(&e.to_string());
        }
    }
    status
}

/// `rmdir dir...`.
fn rmdir(ctx: &mut ProcCtx) -> i32 {
    let cwd = ctx.cwd();
    let mut status = 0;
    for dir in ctx.args().to_vec() {
        if let Err(e) = ctx.vfs_mut().rmdir(&dir, &cwd) {
            status = ctx.fail(&e.to_string());
        }
    }
    status
}

/// `rm [-f] [-r] file...` — remove files (and trees with -r).
fn rm(ctx: &mut ProcCtx) -> i32 {
    let mut force = false;
    let mut recursive = false;
    let mut targets = Vec::new();
    for arg in ctx.args().to_vec() {
        match arg.as_str() {
            "-f" => force = true,
            "-r" | "-rf" | "-fr" => {
                recursive = true;
                force |= arg.contains('f');
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() && !force {
        return ctx.fail("missing operand");
    }
    let cwd = ctx.cwd();
    let mut status = 0;
    for t in &targets {
        let r = if recursive && ctx.vfs().is_dir(t, &cwd) {
            remove_tree(ctx, t, &cwd)
        } else {
            ctx.vfs_mut().unlink(t, &cwd)
        };
        if let Err(e) = r {
            if !force {
                status = ctx.fail(&e.to_string());
            }
        }
    }
    status
}

fn remove_tree(ctx: &mut ProcCtx, path: &str, cwd: &str) -> crate::OsResult<()> {
    let entries = ctx.vfs().read_dir(path, cwd)?;
    for name in entries {
        let child = format!("{}/{}", path.trim_end_matches('/'), name);
        if ctx.vfs().is_dir(&child, cwd) {
            remove_tree(ctx, &child, cwd)?;
        } else {
            ctx.vfs_mut().unlink(&child, cwd)?;
        }
    }
    ctx.vfs_mut().rmdir(path, cwd)
}

/// `touch file...` — create empty files (contents preserved if present).
fn touch(ctx: &mut ProcCtx) -> i32 {
    let cwd = ctx.cwd();
    let mut status = 0;
    for f in ctx.args().to_vec() {
        if let Err(e) = ctx.vfs_mut().create_file(&f, &cwd, false) {
            status = ctx.fail(&e.to_string());
        }
    }
    status
}

/// `cp src dst` — copy one file.
fn cp(ctx: &mut ProcCtx) -> i32 {
    let args = ctx.args().to_vec();
    if args.len() != 2 {
        return ctx.fail("usage: cp src dst");
    }
    let data = match ctx.read_file(&args[0]) {
        Ok(d) => d,
        Err(e) => return ctx.fail(&e.to_string()),
    };
    let cwd = ctx.cwd();
    let dst = if ctx.vfs().is_dir(&args[1], &cwd) {
        let base = args[0].rsplit('/').next().unwrap_or(&args[0]);
        format!("{}/{}", args[1].trim_end_matches('/'), base)
    } else {
        args[1].clone()
    };
    match ctx.write_file(&dst, &data) {
        Ok(()) => 0,
        Err(e) => ctx.fail(&e.to_string()),
    }
}

/// `mv src dst` — move (copy + unlink).
fn mv(ctx: &mut ProcCtx) -> i32 {
    let args = ctx.args().to_vec();
    if args.len() != 2 {
        return ctx.fail("usage: mv src dst");
    }
    let status = cp(ctx);
    if status != 0 {
        return status;
    }
    let cwd = ctx.cwd();
    match ctx.vfs_mut().unlink(&args[0], &cwd) {
        Ok(()) => 0,
        Err(e) => ctx.fail(&e.to_string()),
    }
}

/// `test expr` / `[ expr ]` — evaluate a condition; exit 0 when true.
///
/// Supports the unary operators the paper's spoofs use (`test -f`)
/// plus `-d -e -n -z`, string `=`/`!=`, integer `-eq -ne -lt -le -gt
/// -ge`, and `!` negation.
fn test(ctx: &mut ProcCtx) -> i32 {
    let mut args = ctx.args().to_vec();
    if ctx.name() == "[" {
        if args.last().map(String::as_str) != Some("]") {
            return ctx.fail("missing ]");
        }
        args.pop();
    }
    let mut negate = false;
    let mut rest = &args[..];
    while rest.first().map(String::as_str) == Some("!") {
        negate = !negate;
        rest = &rest[1..];
    }
    let truth = eval_test(ctx, rest);
    match truth {
        Ok(t) => {
            if t != negate {
                0
            } else {
                1
            }
        }
        Err(msg) => ctx.fail(&msg),
    }
}

fn eval_test(ctx: &ProcCtx, args: &[String]) -> Result<bool, String> {
    let cwd = ctx.cwd();
    match args {
        [] => Ok(false),
        [s] => Ok(!s.is_empty()),
        [op, v] => match op.as_str() {
            "-f" => Ok(ctx.vfs().is_file(v, &cwd)),
            "-d" => Ok(ctx.vfs().is_dir(v, &cwd)),
            "-e" => Ok(ctx.vfs().lookup(v, &cwd).is_ok()),
            "-x" => Ok(ctx.vfs().is_executable(v, &cwd)),
            "-n" => Ok(!v.is_empty()),
            "-z" => Ok(v.is_empty()),
            "-s" => {
                let ino = ctx.vfs().lookup(v, &cwd).map_err(|e| e.to_string());
                Ok(matches!(ino, Ok(i) if ctx.vfs().file_len(i) > 0))
            }
            other => Err(format!("unknown operator {other}")),
        },
        [a, op, b] => match op.as_str() {
            "=" => Ok(a == b),
            "!=" => Ok(a != b),
            "-eq" | "-ne" | "-lt" | "-le" | "-gt" | "-ge" => {
                let x: i64 = a.parse().map_err(|_| format!("bad number {a}"))?;
                let y: i64 = b.parse().map_err(|_| format!("bad number {b}"))?;
                Ok(match op.as_str() {
                    "-eq" => x == y,
                    "-ne" => x != y,
                    "-lt" => x < y,
                    "-le" => x <= y,
                    "-gt" => x > y,
                    _ => x >= y,
                })
            }
            other => Err(format!("unknown operator {other}")),
        },
        _ => Err("too many arguments".into()),
    }
}

/// `basename path [suffix]`.
fn basename(ctx: &mut ProcCtx) -> i32 {
    let args = ctx.args().to_vec();
    let path = match args.first() {
        Some(p) => p.trim_end_matches('/'),
        None => return ctx.fail("missing operand"),
    };
    let mut base = path.rsplit('/').next().unwrap_or(path).to_string();
    if let Some(suffix) = args.get(1) {
        if base.len() > suffix.len() {
            if let Some(stripped) = base.strip_suffix(suffix.as_str()) {
                base = stripped.to_string();
            }
        }
    }
    if base.is_empty() {
        base = "/".into();
    }
    ctx.out(&format!("{base}\n"));
    0
}

/// `dirname path`.
fn dirname(ctx: &mut ProcCtx) -> i32 {
    let args = ctx.args().to_vec();
    let path = match args.first() {
        Some(p) => p.trim_end_matches('/'),
        None => return ctx.fail("missing operand"),
    };
    let dir = match path.rfind('/') {
        Some(0) => "/",
        Some(i) => &path[..i],
        None => ".",
    };
    ctx.out(&format!("{dir}\n"));
    0
}

/// `pwd` — print the kernel's current directory.
fn pwd(ctx: &mut ProcCtx) -> i32 {
    let cwd = ctx.cwd();
    ctx.out(&format!("{cwd}\n"));
    0
}
