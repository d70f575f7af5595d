//! Miscellaneous programs: echo, date, true, false, sleep, env, xargs,
//! ps, kill, awk, yes-bounded helpers.

use super::{lines_of, ProcCtx, ProgramFn};
use crate::Signal;
use std::collections::BTreeMap;

pub(super) fn install(map: &mut BTreeMap<&'static str, ProgramFn>) {
    map.insert("echo", echo);
    map.insert("date", date);
    map.insert("true", true_prog);
    map.insert("false", false_prog);
    map.insert("sleep", sleep);
    map.insert("env", env);
    map.insert("xargs", xargs);
    map.insert("ps", ps);
    map.insert("kill", kill);
    map.insert("awk", awk);
}

/// `echo [-n] args...`.
fn echo(ctx: &mut ProcCtx) -> i32 {
    let mut args = ctx.args().to_vec();
    let newline = if args.first().map(String::as_str) == Some("-n") {
        args.remove(0);
        false
    } else {
        true
    };
    let mut out = args.join(" ");
    if newline {
        out.push('\n');
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `date [+FORMAT]` — formats the virtual clock. Supports the strftime
/// verbs the paper's `fn d { date +%y-%m-%d }` example uses plus the
/// common ones: %Y %y %m %d %H %M %S %%.
fn date(ctx: &mut ProcCtx) -> i32 {
    let (y, mo, d, h, mi, s) = ctx.civil_now();
    let args = ctx.args().to_vec();
    let out = match args.first() {
        Some(fmt) if fmt.starts_with('+') => {
            let mut out = String::new();
            let mut it = fmt[1..].chars();
            while let Some(c) = it.next() {
                if c != '%' {
                    out.push(c);
                    continue;
                }
                match it.next() {
                    Some('Y') => out.push_str(&format!("{y:04}")),
                    Some('y') => out.push_str(&format!("{:02}", y % 100)),
                    Some('m') => out.push_str(&format!("{mo:02}")),
                    Some('d') => out.push_str(&format!("{d:02}")),
                    Some('H') => out.push_str(&format!("{h:02}")),
                    Some('M') => out.push_str(&format!("{mi:02}")),
                    Some('S') => out.push_str(&format!("{s:02}")),
                    Some('%') => out.push('%'),
                    Some(other) => {
                        out.push('%');
                        out.push(other);
                    }
                    None => out.push('%'),
                }
            }
            out
        }
        _ => {
            const MONTHS: [&str; 12] = [
                "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
            ];
            format!(
                "{} {d:2} {h:02}:{mi:02}:{s:02} {y}",
                MONTHS[(mo - 1) as usize]
            )
        }
    };
    ctx.out(&format!("{out}\n"));
    0
}

/// `true` — succeed.
fn true_prog(_ctx: &mut ProcCtx) -> i32 {
    0
}

/// `false` — fail.
fn false_prog(_ctx: &mut ProcCtx) -> i32 {
    1
}

/// `sleep seconds` — advance the virtual clock.
fn sleep(ctx: &mut ProcCtx) -> i32 {
    let secs: f64 = ctx
        .args()
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    ctx.sleep_ns((secs * 1e9) as u64);
    0
}

/// `env` — print the environment, one NAME=value per line.
fn env(ctx: &mut ProcCtx) -> i32 {
    let out: String = ctx
        .env()
        .iter()
        .map(|(k, v)| format!("{k}={v}\n"))
        .collect();
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `xargs [cmd [args...]]` — append words read from stdin to the
/// command and run it (single invocation; enough for the paper's
/// `... | xargs kill -9`).
fn xargs(ctx: &mut ProcCtx) -> i32 {
    let stdin = ctx.stdin_all();
    let words: Vec<String> = String::from_utf8_lossy(&stdin)
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let mut argv: Vec<String> = ctx.args().to_vec();
    if argv.is_empty() {
        argv.push("echo".into());
    }
    argv.extend(words);
    match ctx.exec(&argv) {
        Ok(status) => status,
        Err(e) => ctx.fail(&e.to_string()),
    }
}

/// `ps [aux]` — dump the fake process table in `ps aux` shape:
/// `USER PID %CPU %MEM COMMAND`.
fn ps(ctx: &mut ProcCtx) -> i32 {
    let mut out = String::from("USER       PID %CPU %MEM COMMAND\n");
    for p in ctx.procs() {
        out.push_str(&format!(
            "{:<8} {:>5}  0.0  0.1 {}\n",
            p.user, p.pid, p.command
        ));
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `kill [-sig] pid...` — remove processes from the fake table, or
/// queue a signal for the shell if its own pid is named.
fn kill(ctx: &mut ProcCtx) -> i32 {
    let mut sig = Signal::Term;
    let mut pids = Vec::new();
    for arg in ctx.args().to_vec() {
        if let Some(s) = arg.strip_prefix('-') {
            match Signal::parse(s) {
                Some(parsed) => sig = parsed,
                None => return ctx.fail(&format!("bad signal {arg}")),
            }
        } else {
            match arg.parse::<i32>() {
                Ok(pid) => pids.push(pid),
                Err(_) => return ctx.fail(&format!("bad pid {arg}")),
            }
        }
    }
    if pids.is_empty() {
        return ctx.fail("usage: kill [-sig] pid...");
    }
    let hit = ctx.kill(&pids, sig);
    if hit == pids.len() {
        0
    } else {
        1
    }
}

/// `awk 'program' [file...]` — the tiny subset classic shell
/// one-liners use (the paper pipes `ps aux` into `awk '{print $2}'`):
///
/// ```text
/// program := [ '/re/' ] '{' 'print' [expr (',' expr)*] '}'
/// expr    := $N | NF | "literal"
/// ```
fn awk(ctx: &mut ProcCtx) -> i32 {
    let mut operands = ctx.args().to_vec();
    if operands.is_empty() {
        return ctx.fail("usage: awk 'program' [file...]");
    }
    let program = operands.remove(0);
    let (guard, exprs) = match parse_awk(&program) {
        Ok(p) => p,
        Err(msg) => return ctx.fail(&msg),
    };
    let data = if operands.is_empty() {
        ctx.stdin_all()
    } else {
        let mut all = Vec::new();
        for path in &operands {
            match ctx.read_file(path) {
                Ok(d) => all.extend_from_slice(&d),
                Err(e) => return ctx.fail(&e.to_string()),
            }
        }
        all
    };
    let mut out = String::new();
    for line in lines_of(&data) {
        if let Some(re) = &guard {
            if !re.is_match(&line) {
                continue;
            }
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let mut parts = Vec::new();
        for e in &exprs {
            match e {
                AwkExpr::Field(0) => parts.push(line.clone()),
                AwkExpr::Field(n) => {
                    parts.push(fields.get(n - 1).map_or(String::new(), |s| s.to_string()))
                }
                AwkExpr::Nf => parts.push(fields.len().to_string()),
                AwkExpr::Lit(s) => parts.push(s.clone()),
            }
        }
        if parts.is_empty() {
            parts.push(line.clone());
        }
        out.push_str(&parts.join(" "));
        out.push('\n');
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

enum AwkExpr {
    Field(usize),
    Nf,
    Lit(String),
}

fn parse_awk(program: &str) -> Result<(Option<es_regex::Regex>, Vec<AwkExpr>), String> {
    let mut src = program.trim();
    let mut guard = None;
    if let Some(rest) = src.strip_prefix('/') {
        let end = rest.find('/').ok_or("unterminated /re/ guard")?;
        guard = Some(es_regex::Regex::new(&rest[..end]).map_err(|e| e.to_string())?);
        src = rest[end + 1..].trim();
    }
    let body = src
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected { action }")?
        .trim();
    if body.is_empty() {
        return Ok((guard, Vec::new()));
    }
    let args = body
        .strip_prefix("print")
        .ok_or("only `print` is supported")?
        .trim();
    let mut exprs = Vec::new();
    if !args.is_empty() {
        for piece in args.split(',') {
            let piece = piece.trim();
            if let Some(n) = piece.strip_prefix('$') {
                exprs.push(AwkExpr::Field(
                    n.parse().map_err(|_| format!("bad field {piece}"))?,
                ));
            } else if piece == "NF" {
                exprs.push(AwkExpr::Nf);
            } else if piece.starts_with('"') && piece.ends_with('"') && piece.len() >= 2 {
                exprs.push(AwkExpr::Lit(piece[1..piece.len() - 1].to_string()));
            } else {
                return Err(format!("unsupported expression {piece}"));
            }
        }
    }
    Ok((guard, exprs))
}
