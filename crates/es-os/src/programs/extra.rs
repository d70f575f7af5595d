//! Additional utilities beyond the paper's examples: expr, cut,
//! printf, nl, tac, cmp, which — the tools richer es scripts (and the
//! wider test suite) lean on. The shell itself has no arithmetic, so
//! `expr` matters: classic Bourne scripting counts with it, and es
//! scripts here do the same.

use super::{lines_of, ProcCtx, ProgramFn};
use std::collections::BTreeMap;

pub(super) fn install(map: &mut BTreeMap<&'static str, ProgramFn>) {
    map.insert("expr", expr);
    map.insert("cut", cut);
    map.insert("printf", printf);
    map.insert("nl", nl);
    map.insert("tac", tac);
    map.insert("cmp", cmp);
    map.insert("which", which);
}

/// `expr a OP b [OP c ...]` — left-associative integer arithmetic and
/// comparisons. Operators: `+ - '*' / % = != '<' '<=' '>' '>='`.
/// Prints the result; exit status 0 for nonzero/true results, 1 for
/// zero/false (the real tool's convention).
fn expr(ctx: &mut ProcCtx) -> i32 {
    let args = ctx.args().to_vec();
    if args.is_empty() {
        return ctx.fail("missing operand");
    }
    let mut acc: i64 = match args[0].parse() {
        Ok(v) => v,
        Err(_) => return ctx.fail(&format!("non-integer argument: {}", args[0])),
    };
    let mut i = 1;
    while i + 1 < args.len() + 1 && i < args.len() {
        let op = &args[i];
        let rhs: i64 = match args.get(i + 1).map(|s| s.parse()) {
            Some(Ok(v)) => v,
            _ => return ctx.fail("missing or bad right operand"),
        };
        acc = match op.as_str() {
            "+" => acc + rhs,
            "-" => acc - rhs,
            "*" => acc * rhs,
            "/" => {
                if rhs == 0 {
                    return ctx.fail("division by zero");
                }
                acc / rhs
            }
            "%" => {
                if rhs == 0 {
                    return ctx.fail("division by zero");
                }
                acc % rhs
            }
            "=" => (acc == rhs) as i64,
            "!=" => (acc != rhs) as i64,
            "<" => (acc < rhs) as i64,
            "<=" => (acc <= rhs) as i64,
            ">" => (acc > rhs) as i64,
            ">=" => (acc >= rhs) as i64,
            other => return ctx.fail(&format!("unknown operator {other}")),
        };
        i += 2;
    }
    ctx.out(&format!("{acc}\n"));
    if acc != 0 {
        0
    } else {
        1
    }
}

/// `cut -d DELIM -f N[,M...] [file]` or `cut -c A-B [file]`.
fn cut(ctx: &mut ProcCtx) -> i32 {
    let mut delim = '\t';
    let mut fields: Vec<usize> = Vec::new();
    let mut chars_range: Option<(usize, usize)> = None;
    let mut input = None;
    let args = ctx.args().to_vec();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-d" => {
                delim = it.next().and_then(|s| s.chars().next()).unwrap_or('\t');
            }
            "-f" => {
                let spec = match it.next() {
                    Some(s) => s,
                    None => return ctx.fail("missing field list"),
                };
                for part in spec.split(',') {
                    match part.parse() {
                        Ok(n) if n >= 1 => fields.push(n),
                        _ => return ctx.fail(&format!("bad field {part}")),
                    }
                }
            }
            "-c" => {
                let spec = match it.next() {
                    Some(s) => s,
                    None => return ctx.fail("missing character range"),
                };
                let (a, b) = match spec.split_once('-') {
                    Some((a, b)) => (a.parse().unwrap_or(1), b.parse().unwrap_or(usize::MAX)),
                    None => {
                        let n = spec.parse().unwrap_or(1);
                        (n, n)
                    }
                };
                chars_range = Some((a, b));
            }
            other => input = Some(other.to_string()),
        }
    }
    if fields.is_empty() && chars_range.is_none() {
        return ctx.fail("you must specify a list of fields or characters");
    }
    let data = match ctx.file_or_stdin(input.as_deref()) {
        Ok(data) => data,
        Err(status) => return status,
    };
    let mut out = String::new();
    for line in lines_of(&data) {
        if let Some((a, b)) = chars_range {
            let chars: Vec<char> = line.chars().collect();
            let lo = a.saturating_sub(1).min(chars.len());
            let hi = b.min(chars.len());
            out.extend(chars[lo..hi].iter());
        } else {
            let parts: Vec<&str> = line.split(delim).collect();
            let picked: Vec<&str> = fields
                .iter()
                .filter_map(|&n| parts.get(n - 1).copied())
                .collect();
            out.push_str(&picked.join(&delim.to_string()));
        }
        out.push('\n');
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `printf FORMAT [args...]` — `%s` `%d` `%%` plus `\n` `\t` `\\`
/// escapes; the format is reused until the arguments run out, like the
/// real tool.
fn printf(ctx: &mut ProcCtx) -> i32 {
    let args = ctx.args().to_vec();
    let format = match args.first() {
        Some(f) => f.clone(),
        None => return ctx.fail("missing format"),
    };
    let mut values = args[1..].iter();
    let mut out = String::new();
    loop {
        let mut consumed = false;
        let mut it = format.chars().peekable();
        while let Some(c) = it.next() {
            match c {
                '%' => match it.next() {
                    Some('s') => {
                        if let Some(v) = values.next() {
                            out.push_str(v);
                            consumed = true;
                        }
                    }
                    Some('d') => {
                        let v = values.next().map(String::as_str).unwrap_or("0");
                        match v.parse::<i64>() {
                            Ok(n) => out.push_str(&n.to_string()),
                            Err(_) => return ctx.fail(&format!("bad number {v}")),
                        }
                        consumed = true;
                    }
                    Some('%') => out.push('%'),
                    Some(other) => {
                        out.push('%');
                        out.push(other);
                    }
                    None => out.push('%'),
                },
                '\\' => match it.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('\\') => out.push('\\'),
                    Some(other) => out.push(other),
                    None => out.push('\\'),
                },
                other => out.push(other),
            }
        }
        // Reuse the format while arguments remain (and progress).
        if values.len() == 0 || !consumed {
            break;
        }
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `nl [file]` — number lines (six-wide, tab separated).
fn nl(ctx: &mut ProcCtx) -> i32 {
    let path = ctx.args().first().cloned();
    let data = match ctx.file_or_stdin(path.as_deref()) {
        Ok(data) => data,
        Err(status) => return status,
    };
    let mut out = String::new();
    for (i, line) in lines_of(&data).iter().enumerate() {
        out.push_str(&format!("{:6}\t{line}\n", i + 1));
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `tac [file]` — lines in reverse order.
fn tac(ctx: &mut ProcCtx) -> i32 {
    let path = ctx.args().first().cloned();
    let data = match ctx.file_or_stdin(path.as_deref()) {
        Ok(data) => data,
        Err(status) => return status,
    };
    let mut out = String::new();
    for line in lines_of(&data).iter().rev() {
        out.push_str(line);
        out.push('\n');
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `cmp a b` — silent compare; status 0 iff identical.
fn cmp(ctx: &mut ProcCtx) -> i32 {
    let args = ctx.args().to_vec();
    let (a, b) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a.clone(), b.clone()),
        _ => return ctx.fail("usage: cmp a b"),
    };
    let da = match ctx.read_file(&a) {
        Ok(d) => d,
        Err(e) => return ctx.fail(&e.to_string()),
    };
    let db = match ctx.read_file(&b) {
        Ok(d) => d,
        Err(e) => return ctx.fail(&e.to_string()),
    };
    if da == db {
        0
    } else {
        let _ = ctx.write_fd(1, format!("{a} {b} differ\n").as_bytes());
        1
    }
}

/// `which name...` — resolve against `$PATH`, one path per line.
fn which(ctx: &mut ProcCtx) -> i32 {
    let path = ctx.getenv("PATH").unwrap_or("/bin").to_string();
    let mut status = 0;
    for name in ctx.args().to_vec() {
        if name.contains('/') {
            ctx.out(&format!("{name}\n"));
            continue;
        }
        let mut found = None;
        for dir in path.split(':') {
            let cand = format!("{dir}/{name}");
            if ctx.vfs().is_executable(&cand, "/") {
                found = Some(cand);
                break;
            }
        }
        match found {
            Some(p) => ctx.out(&format!("{p}\n")),
            None => status = ctx.fail(&format!("{name} not found")),
        }
    }
    status
}
