//! `sed` — the stream-editor subset the paper's pipelines need.
//!
//! Figure 1 ends in `sed 6q`; classic shell one-liners also lean on
//! `s/re/rep/[g]`, `p`, `d`, and `-n`. The supported script grammar:
//!
//! ```text
//! script  := cmd (';' cmd)*
//! cmd     := [address] action
//! address := NUMBER | '$' | '/regex/'
//! action  := 'q' | 'd' | 'p' | 's/re/rep/[g]'
//! ```

use super::{lines_of, ProcCtx};
use es_regex::Regex;

#[derive(Debug, Clone)]
enum Address {
    Line(usize),
    Last,
    Re(Regex),
    All,
}

#[derive(Debug, Clone)]
enum Action {
    Quit,
    Delete,
    Print,
    Subst {
        re: Regex,
        rep: String,
        global: bool,
    },
}

#[derive(Debug, Clone)]
struct Cmd {
    addr: Address,
    action: Action,
}

/// `sed [-n] script [file...]`.
pub(super) fn sed(ctx: &mut ProcCtx) -> i32 {
    let mut quiet = false;
    let mut operands = Vec::new();
    for arg in ctx.args().to_vec() {
        match arg.as_str() {
            "-n" => quiet = true,
            other => operands.push(other.to_string()),
        }
    }
    if operands.is_empty() {
        return ctx.fail("usage: sed [-n] script [file...]");
    }
    let script = operands.remove(0);
    let cmds = match parse_script(&script) {
        Ok(c) => c,
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
    let lines = lines_of(&data);
    let total = lines.len();
    let mut out = String::new();
    'outer: for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        let mut cur = line.clone();
        let mut deleted = false;
        for cmd in &cmds {
            let selected = match &cmd.addr {
                Address::All => true,
                Address::Line(n) => lineno == *n,
                Address::Last => lineno == total,
                Address::Re(re) => re.is_match(&cur),
            };
            if !selected {
                continue;
            }
            match &cmd.action {
                Action::Quit => {
                    if !quiet && !deleted {
                        out.push_str(&cur);
                        out.push('\n');
                    }
                    let _ = ctx.write_fd(1, out.as_bytes());
                    return 0;
                }
                Action::Delete => {
                    deleted = true;
                    break;
                }
                Action::Print => {
                    out.push_str(&cur);
                    out.push('\n');
                }
                Action::Subst { re, rep, global } => {
                    let (new, _) = re.replace(&cur, rep, *global);
                    cur = new;
                }
            }
            if deleted {
                continue 'outer;
            }
        }
        if !quiet && !deleted {
            out.push_str(&cur);
            out.push('\n');
        }
    }
    let _ = ctx.write_fd(1, out.as_bytes());
    0
}

fn parse_script(script: &str) -> Result<Vec<Cmd>, String> {
    let mut cmds = Vec::new();
    for part in split_script(script) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        cmds.push(parse_cmd(part)?);
    }
    if cmds.is_empty() {
        return Err("empty script".into());
    }
    Ok(cmds)
}

/// Splits on `;` but not inside `/.../` delimiters.
fn split_script(script: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut depth_slash = false;
    let mut prev_escape = false;
    for c in script.chars() {
        if c == '/' && !prev_escape {
            depth_slash = !depth_slash;
        }
        prev_escape = c == '\\' && !prev_escape;
        if c == ';' && !depth_slash {
            parts.push(std::mem::take(&mut cur));
        } else {
            cur.push(c);
        }
    }
    parts.push(cur);
    parts
}

fn parse_cmd(text: &str) -> Result<Cmd, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    // Address.
    let addr = if chars[0].is_ascii_digit() {
        let mut n = 0usize;
        while i < chars.len() && chars[i].is_ascii_digit() {
            n = n * 10 + chars[i] as usize - '0' as usize;
            i += 1;
        }
        Address::Line(n)
    } else if chars[0] == '$' {
        i += 1;
        Address::Last
    } else if chars[0] == '/' {
        let (pat, next) = take_delimited(&chars, 0, '/')?;
        i = next;
        Address::Re(Regex::new(&pat).map_err(|e| e.to_string())?)
    } else {
        Address::All
    };
    while i < chars.len() && chars[i] == ' ' {
        i += 1;
    }
    let action = match chars.get(i) {
        Some('q') => Action::Quit,
        Some('d') => Action::Delete,
        Some('p') => Action::Print,
        Some('s') => {
            let delim = *chars.get(i + 1).ok_or("unterminated s command")?;
            let (pat, next) = take_delimited(&chars, i + 1, delim)?;
            // The replacement runs to the next unescaped delimiter.
            let mut rep = String::new();
            let mut j = next;
            let mut escaped = false;
            loop {
                let c = *chars.get(j).ok_or("unterminated s command")?;
                if c == delim && !escaped {
                    break;
                }
                escaped = c == '\\' && !escaped;
                rep.push(c);
                j += 1;
            }
            let global = chars.get(j + 1) == Some(&'g');
            return Ok(Cmd {
                addr,
                action: Action::Subst {
                    re: Regex::new(&pat).map_err(|e| e.to_string())?,
                    rep,
                    global,
                },
            });
        }
        other => return Err(format!("unknown sed command {other:?}")),
    };
    Ok(Cmd { addr, action })
}

/// Reads a `/delimited/` section starting at the opening delimiter at
/// `chars[start]`; returns the contents and the index after the close.
fn take_delimited(chars: &[char], start: usize, delim: char) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut i = start + 1;
    let mut escaped = false;
    loop {
        let c = *chars.get(i).ok_or("unterminated pattern")?;
        if c == delim && !escaped {
            return Ok((out, i + 1));
        }
        if c == '\\' && !escaped {
            escaped = true;
            // Keep the backslash: the regex engine handles escapes,
            // except the escaped delimiter which becomes literal.
            if chars.get(i + 1) == Some(&delim) {
                i += 1;
                continue;
            }
            out.push(c);
            i += 1;
            continue;
        }
        escaped = false;
        out.push(c);
        i += 1;
    }
}
