//! Text-filter programs: cat, tr, sort, uniq, wc, head, tail, seq, tee.
//!
//! These are the pipeline stages of the paper's Figure 1 word-frequency
//! example (`cat paper9 | tr -cs a-zA-Z0-9 '\012' | sort | uniq -c |
//! sort -nr | sed 6q`), implemented with the option subsets the paper's
//! examples use plus the common flags any es user would reach for.

use super::{lines_of, ProcCtx, ProgramFn};
use std::collections::BTreeMap;

pub(super) fn install(map: &mut BTreeMap<&'static str, ProgramFn>) {
    map.insert("cat", cat);
    map.insert("tr", tr);
    map.insert("sort", sort);
    map.insert("uniq", uniq);
    map.insert("wc", wc);
    map.insert("head", head);
    map.insert("tail", tail);
    map.insert("seq", seq);
    map.insert("tee", tee);
}

/// `cat [file...]` — concatenate files (or stdin) to stdout.
fn cat(ctx: &mut ProcCtx) -> i32 {
    let args = ctx.args().to_vec();
    if args.is_empty() {
        let data = ctx.stdin_all();
        let _ = ctx.write_fd(1, &data);
        return 0;
    }
    let mut status = 0;
    for path in &args {
        if path == "-" {
            let data = ctx.stdin_all();
            let _ = ctx.write_fd(1, &data);
            continue;
        }
        match ctx.read_file(path) {
            Ok(data) => {
                let _ = ctx.write_fd(1, &data);
            }
            Err(e) => {
                status = ctx.fail(&e.to_string());
            }
        }
    }
    status
}

/// Expands `a-z`-style range notation plus `\012` octal and `\n`
/// escapes into a character set.
fn tr_set(spec: &str) -> Vec<char> {
    let mut out = Vec::new();
    let chars: Vec<char> = spec.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '\\' && i + 1 < chars.len() {
            // Octal escape (\012) or single-char escape (\n, \t).
            let rest: String = chars[i + 1..].iter().take(3).collect();
            if rest.len() == 3 && rest.chars().all(|c| ('0'..='7').contains(&c)) {
                let code = u32::from_str_radix(&rest, 8).unwrap_or(10);
                out.push(char::from_u32(code).unwrap_or('\n'));
                i += 4;
                continue;
            }
            out.push(match chars[i + 1] {
                'n' => '\n',
                't' => '\t',
                c => c,
            });
            i += 2;
        } else if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (lo, hi) = (chars[i], chars[i + 2]);
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            for c in lo..=hi {
                out.push(c);
            }
            i += 3;
        } else {
            out.push(chars[i]);
            i += 1;
        }
    }
    out
}

/// `tr [-c] [-s] [-d] set1 [set2]` — translate or delete characters.
/// Supports the paper's `tr -cs a-zA-Z0-9 '\012'` usage: complement,
/// squeeze, map-to-single-char.
fn tr(ctx: &mut ProcCtx) -> i32 {
    let mut complement = false;
    let mut squeeze = false;
    let mut delete = false;
    let mut sets = Vec::new();
    for arg in ctx.args().to_vec() {
        if let Some(flags) = arg.strip_prefix('-') {
            if arg == "-" || flags.chars().any(|c| !"csd".contains(c)) {
                sets.push(arg);
                continue;
            }
            for c in flags.chars() {
                match c {
                    'c' => complement = true,
                    's' => squeeze = true,
                    'd' => delete = true,
                    _ => unreachable!("filtered above"),
                }
            }
        } else {
            sets.push(arg);
        }
    }
    if sets.is_empty() {
        return ctx.fail("missing operand");
    }
    let set1 = tr_set(&sets[0]);
    let set2: Vec<char> = sets.get(1).map(|s| tr_set(s)).unwrap_or_default();
    let input = String::from_utf8_lossy(&ctx.stdin_all()).into_owned();
    let in_set1 = |c: char| set1.contains(&c) != complement;
    let mut out = String::with_capacity(input.len());
    let mut last_emitted: Option<char> = None;
    for c in input.chars() {
        let mapped = if in_set1(c) {
            if delete {
                continue;
            }
            if set2.is_empty() {
                c
            } else if complement {
                // Complemented translate: everything maps to set2's last char.
                *set2.last().expect("set2 nonempty")
            } else {
                let idx = set1.iter().position(|&s| s == c).expect("member");
                *set2.get(idx).or(set2.last()).expect("set2 nonempty")
            }
        } else {
            c
        };
        let translated = in_set1(c) && !set2.is_empty();
        if squeeze && translated && last_emitted == Some(mapped) {
            continue;
        }
        out.push(mapped);
        last_emitted = Some(mapped);
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `sort [-n] [-r] [-u] [file...]` — sort lines.
fn sort(ctx: &mut ProcCtx) -> i32 {
    let mut numeric = false;
    let mut reverse = false;
    let mut unique = false;
    let mut inputs = Vec::new();
    for arg in ctx.args().to_vec() {
        match arg.as_str() {
            "-n" => numeric = true,
            "-r" => reverse = true,
            "-u" => unique = true,
            "-nr" | "-rn" => {
                numeric = true;
                reverse = true;
            }
            other => inputs.push(other.to_string()),
        }
    }
    let data = if inputs.is_empty() {
        ctx.stdin_all()
    } else {
        let mut all = Vec::new();
        for path in &inputs {
            match ctx.read_file(path) {
                Ok(d) => all.extend_from_slice(&d),
                Err(e) => return ctx.fail(&e.to_string()),
            }
        }
        all
    };
    let mut lines = lines_of(&data);
    // Charge n log n comparisons beyond the per-byte default, so a
    // sort stage costs visibly more than cat in Figure 1's profile
    // (the paper shows sort -nr at 0.6u against cat's 0.3u).
    let n = lines.len().max(1) as u64;
    ctx.charge_user_ns(n * n.ilog2().max(1) as u64 * 40_000);
    if numeric {
        lines.sort_by(|a, b| {
            let ka = leading_number(a);
            let kb = leading_number(b);
            ka.partial_cmp(&kb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        });
    } else {
        lines.sort();
    }
    if reverse {
        lines.reverse();
    }
    if unique {
        lines.dedup();
    }
    let mut out = lines.join("\n");
    if !lines.is_empty() {
        out.push('\n');
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

fn leading_number(s: &str) -> f64 {
    let t = s.trim_start();
    let end = t
        .char_indices()
        .take_while(|(i, c)| {
            c.is_ascii_digit() || *c == '.' || (*i == 0 && (*c == '-' || *c == '+'))
        })
        .map(|(i, c)| i + c.len_utf8())
        .last()
        .unwrap_or(0);
    t[..end].parse().unwrap_or(0.0)
}

/// `uniq [-c] [file]` — collapse adjacent duplicate lines.
fn uniq(ctx: &mut ProcCtx) -> i32 {
    let mut count = false;
    let mut input = None;
    for arg in ctx.args().to_vec() {
        match arg.as_str() {
            "-c" => count = true,
            other => input = Some(other.to_string()),
        }
    }
    let data = match ctx.file_or_stdin(input.as_deref()) {
        Ok(data) => data,
        Err(status) => return status,
    };
    let mut out = String::new();
    let mut run: Option<(String, usize)> = None;
    let flush = |run: &mut Option<(String, usize)>, out: &mut String| {
        if let Some((line, n)) = run.take() {
            if count {
                // GNU uniq -c right-aligns the count in 7 columns
                // (`%7d `), growing only for counts past 9,999,999.
                out.push_str(&format!("{n:7} {line}\n"));
            } else {
                out.push_str(&line);
                out.push('\n');
            }
        }
    };
    for line in lines_of(&data) {
        match &mut run {
            Some((cur, n)) if *cur == line => *n += 1,
            _ => {
                flush(&mut run, &mut out);
                run = Some((line, 1));
            }
        }
    }
    flush(&mut run, &mut out);
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `wc [-l] [-w] [-c] [file...]` — count lines, words, bytes.
/// With no flags prints all three, like the paper's `61 61 478`.
fn wc(ctx: &mut ProcCtx) -> i32 {
    let mut show = (false, false, false);
    let mut inputs = Vec::new();
    for arg in ctx.args().to_vec() {
        match arg.as_str() {
            "-l" => show.0 = true,
            "-w" => show.1 = true,
            "-c" => show.2 = true,
            other => inputs.push(other.to_string()),
        }
    }
    if show == (false, false, false) {
        show = (true, true, true);
    }
    let fmt = |show: (bool, bool, bool), width: usize, l: usize, w: usize, c: usize, name: &str| {
        let mut parts = Vec::new();
        if show.0 {
            parts.push(format!("{l:width$}"));
        }
        if show.1 {
            parts.push(format!("{w:width$}"));
        }
        if show.2 {
            parts.push(format!("{c:width$}"));
        }
        let mut line = parts.join(" ");
        if !name.is_empty() {
            line.push(' ');
            line.push_str(name);
        }
        line.push('\n');
        line
    };
    let count = |data: &[u8]| {
        let text = String::from_utf8_lossy(data);
        let l = text.matches('\n').count();
        let w = text.split_whitespace().count();
        (l, w, data.len())
    };
    let one_count = [show.0, show.1, show.2].iter().filter(|b| **b).count() == 1;
    if inputs.is_empty() {
        // GNU: a single count from an unstatable stdin prints bare;
        // multiple counts pad to the stdin default of 7 columns.
        let data = ctx.stdin_all();
        let (l, w, c) = count(&data);
        let width = if one_count { 1 } else { 7 };
        let line = fmt(show, width, l, w, c, "");
        ctx.out(&line);
        return 0;
    }
    // Read every input up front: GNU sizes the count columns to the
    // digits of the total byte count across all named files.
    let mut counted = Vec::new();
    for path in &inputs {
        match ctx.read_file(path) {
            Ok(data) => counted.push((count(&data), path)),
            Err(e) => return ctx.fail(&e.to_string()),
        }
    }
    let total_bytes: usize = counted.iter().map(|((_, _, c), _)| c).sum();
    let width = if one_count && inputs.len() == 1 {
        1
    } else {
        total_bytes.to_string().len()
    };
    let mut totals = (0, 0, 0);
    for ((l, w, c), path) in &counted {
        totals = (totals.0 + l, totals.1 + w, totals.2 + c);
        let line = fmt(show, width, *l, *w, *c, path);
        ctx.out(&line);
    }
    if inputs.len() > 1 {
        let line = fmt(show, width, totals.0, totals.1, totals.2, "total");
        ctx.out(&line);
    }
    0
}

/// `head [-n N | -N] [file]` — first N lines (default 10).
fn head(ctx: &mut ProcCtx) -> i32 {
    let (n, input) = head_tail_args(ctx);
    let data = match ctx.file_or_stdin(input.as_deref()) {
        Ok(data) => data,
        Err(status) => return status,
    };
    let mut out = String::new();
    for line in lines_of(&data).into_iter().take(n) {
        out.push_str(&line);
        out.push('\n');
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `tail [-n N | -N] [file]` — last N lines (default 10).
fn tail(ctx: &mut ProcCtx) -> i32 {
    let (n, input) = head_tail_args(ctx);
    let data = match ctx.file_or_stdin(input.as_deref()) {
        Ok(data) => data,
        Err(status) => return status,
    };
    let lines = lines_of(&data);
    let start = lines.len().saturating_sub(n);
    let mut out = String::new();
    for line in &lines[start..] {
        out.push_str(line);
        out.push('\n');
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

fn head_tail_args(ctx: &ProcCtx) -> (usize, Option<String>) {
    let mut n = 10usize;
    let mut input = None;
    let mut args = ctx.args().iter();
    while let Some(arg) = args.next() {
        if arg == "-n" {
            if let Some(v) = args.next() {
                n = v.parse().unwrap_or(10);
            }
        } else if let Some(num) = arg.strip_prefix('-') {
            if let Ok(v) = num.parse() {
                n = v;
            }
        } else {
            input = Some(arg.clone());
        }
    }
    (n, input)
}

/// `seq [first] last` — print integers, one per line.
fn seq(ctx: &mut ProcCtx) -> i32 {
    let args = ctx.args();
    let (first, last) = match args.len() {
        1 => (1i64, args[0].parse().unwrap_or(0)),
        2 => (args[0].parse().unwrap_or(1), args[1].parse().unwrap_or(0)),
        _ => return ctx.fail("usage: seq [first] last"),
    };
    let mut out = String::new();
    let mut i = first;
    while i <= last {
        out.push_str(&i.to_string());
        out.push('\n');
        i += 1;
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

/// `tee [file...]` — copy stdin to stdout and every file.
fn tee(ctx: &mut ProcCtx) -> i32 {
    let data = ctx.stdin_all();
    let _ = ctx.write_fd(1, &data);
    let mut status = 0;
    for path in ctx.args().to_vec() {
        if let Err(e) = ctx.write_file(&path, &data) {
            status = ctx.fail(&e.to_string());
        }
    }
    status
}
