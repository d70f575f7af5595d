//! Process, path, string, and introspection primitives.

use super::{apply_thunk_with_args, arg, arg_slot};
use crate::eval::{must_value, Flow};
use crate::exception::{EsError, EsResult};
use crate::machine::{Input, Machine};
use crate::value::{self, Term};
use es_gc::{Ref, RootSlot};
use es_os::Os;

/// `$&fork cmd args...` — run the command in a subshell: a clone of
/// the whole machine (heap, globals, descriptors, kernel), which is
/// the copy-on-fork image a real fork(2) gives. Exceptions in the
/// subshell print a message and yield a false status, exactly the
/// paper's description of exception propagation out of subshells.
pub fn fork<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let list = m.heap.root(args);
    if list.is_nil() {
        // Bare `fork`: nothing to run in the child.
        return Ok(Flow::Val(value::true_value(&mut m.heap)));
    }
    let mut child = m.clone();
    // The child sees the same rooted structures: slots transfer
    // because the heap clone preserves indices.
    let status = match crate::eval::apply_slot(&mut child, args, env, None) {
        Ok(flow) => {
            if value::truth(&child.heap, must_value(flow)) {
                0
            } else {
                1
            }
        }
        Err(EsError::Exit(code)) => code,
        Err(EsError::Throw(e)) => {
            let msg = value::read_strings(&child.heap, e).join(" ");
            let _ = child.write_fd(
                2,
                format!("es: uncaught exception in subshell: {msg}\n").as_bytes(),
            );
            1
        }
    };
    // Merge the child's console output back so `fork {echo hi}` is
    // visible: in a real kernel both processes share the terminal.
    m.absorb_fork_output(&mut child);
    Ok(Flow::Val(value::status_value(&mut m.heap, status)))
}

/// `$&background {cmd}` — the simulator runs the job synchronously
/// (run-to-completion process model) but gives it a pid in `$apid`,
/// preserving the shell-visible protocol.
pub fn background<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    env: RootSlot,
) -> EsResult<Flow> {
    let flow = fork(m, args, env)?;
    let _ = must_value(flow);
    let pid = m.next_bg_pid();
    let pid_str = pid.to_string();
    let pid_list = value::list_from_strs(&mut m.heap, &[&pid_str]);
    m.assign_raw(Ref::NIL, crate::machine::sym::APID, pid_list);
    Ok(Flow::Val(value::true_value(&mut m.heap)))
}

/// `$&exit [status]`.
pub fn exit<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot) -> EsResult<Flow> {
    Err(EsError::Exit(arg(m, args, 1).unwrap_or(0)))
}

/// `$&time cmd args...` — run the command, report real/user/sys of the
/// children it ran, in the paper's `2r 0.3u 0.2s cat paper9` format,
/// on stderr. Figure 1's `%pipe` spoof wraps each stage in this.
pub fn time<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let list = m.heap.root(args);
    if list.is_nil() {
        return Err(m.error("time: missing command"));
    }
    let label = describe_command(m, args);
    let t0 = m.os().now_ns();
    let r0 = m.os().children_rusage();
    let base = m.heap.roots_len();
    let head = arg_slot(m, args, 1).expect("nonempty checked");
    let rest = m.heap.pair_tail(m.heap.root(args));
    let flow = apply_thunk_with_args(m, head, rest, env, None)?;
    let v = must_value(flow);
    let v_slot = m.heap.push_root(v);
    let real = (m.os().now_ns() - t0) as f64 / 1e9;
    let used = m.os().children_rusage() - r0;
    let line = format!(
        "{:4}r {:4.1}u {:4.1}s\t{}\n",
        real.round() as u64,
        used.user_secs(),
        used.sys_secs(),
        label
    );
    let _ = m.write_fd(2, line.as_bytes());
    let out = m.heap.root(v_slot);
    m.heap.truncate_roots(base);
    Ok(Flow::Val(out))
}

/// Human-readable command text for `time` output: closures print as
/// their body source, strings as themselves.
fn describe_command<O: Os + Clone>(m: &Machine<O>, args: RootSlot) -> String {
    m.terms_at(args)
        .into_iter()
        .map(|t| match t {
            Term::Str(s) => s,
            Term::Closure(code, _) => es_syntax::print::unparse_node(&code.body),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// `$&cd [dir]` — chdir; errors carry the classic `chdir dir:
/// strerror` message the paper's `in /temp` example shows.
pub fn cd<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot) -> EsResult<Flow> {
    let dir = match arg(m, args, 1) {
        Some(d) => d,
        None => {
            let home = m.get_var("home");
            match home.first() {
                Some(h) => h.clone(),
                None => return Err(m.error("cd: no home directory")),
            }
        }
    };
    match es_os::retry_intr(|| m.os_mut().chdir(&dir)) {
        Ok(()) => Ok(Flow::Val(value::true_value(&mut m.heap))),
        Err(e) => Err(m.error(&format!("chdir {dir}: {}", e.strerror()))),
    }
}

/// `$&flatten sep args...` — join into one word (`%flatten : $*` is
/// how `set-path` builds `$PATH`).
pub fn flatten<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot) -> EsResult<Flow> {
    let strings = m.strings_at(args);
    let (sep, rest) = match strings.split_first() {
        Some(x) => x,
        None => return Err(m.error("flatten: missing separator")),
    };
    let joined = rest.join(sep);
    Ok(Flow::Val(value::list_from_strs(&mut m.heap, &[&joined])))
}

/// `$&fsplit sep args...` (fields: empty fields kept) and
/// `$&split sep args...` (words: runs of separators collapse).
pub fn split<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    keep_empty: bool,
) -> EsResult<Flow> {
    let strings = m.strings_at(args);
    let (sep, rest) = match strings.split_first() {
        Some(x) => x,
        None => return Err(m.error("split: missing separator")),
    };
    let seps: Vec<char> = sep.chars().collect();
    let mut out: Vec<String> = Vec::new();
    for s in rest {
        for piece in s.split(|c: char| seps.contains(&c)) {
            if keep_empty || !piece.is_empty() {
                out.push(piece.to_string());
            }
        }
    }
    let refs: Vec<&str> = out.iter().map(String::as_str).collect();
    Ok(Flow::Val(value::list_from_strs(&mut m.heap, &refs)))
}

/// `$&vars` — sorted global variable names.
pub fn vars<O: Os + Clone>(m: &mut Machine<O>) -> EsResult<Flow> {
    let names = m.global_names();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Ok(Flow::Val(value::list_from_strs(&mut m.heap, &refs)))
}

/// `$&whatis name...` — print each name's definition: the value of
/// `fn-name` with closures unparsed (`%closure(a=b)@ * {echo $a}`), or
/// the resolved path for externals.
pub fn whatis<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let names = m.strings_at(args);
    let mut lines = String::new();
    for name in &names {
        let resolved = m.lookup_name(m.heap.root(env), "fn-", name);
        match resolved {
            Some(v) if !v.is_nil() => {
                let parts = value::read_strings(&m.heap, v);
                lines.push_str(&parts.join(" "));
                lines.push('\n');
            }
            _ => {
                // Fall back to a path search, without caching.
                match search_path(m, name) {
                    Some(path) => {
                        lines.push_str(&path);
                        lines.push('\n');
                    }
                    None => return Err(m.error(&format!("{name}: command not found"))),
                }
            }
        }
    }
    if let Err(e) = m.write_fd(1, lines.as_bytes()) {
        return Err(m.error(&format!("whatis: {e}")));
    }
    Ok(Flow::Val(value::true_value(&mut m.heap)))
}

fn search_path<O: Os + Clone>(m: &Machine<O>, name: &str) -> Option<String> {
    if name.contains('/') {
        return Some(name.to_string());
    }
    for dir in m.get_var("path") {
        let cand = if dir.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", dir.trim_end_matches('/'), name)
        };
        if m.os().is_executable(&cand) {
            return Some(cand);
        }
    }
    None
}

/// `$&pathsearch name` — the default behaviour of the `%pathsearch`
/// hook: scan `$path` for an executable; throw `error` if absent.
/// Figure 2's cache spoofs the hook and calls down to this.
pub fn pathsearch<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot) -> EsResult<Flow> {
    let Some(name) = arg::<String, _>(m, args, 1) else {
        return Err(m.error("pathsearch: missing name"));
    };
    match search_path(m, &name) {
        Some(path) => Ok(Flow::Val(value::list_from_strs(&mut m.heap, &[&path]))),
        None => Err(m.error(&format!("{name}: command not found"))),
    }
}

/// `$&dot file args...` — source an es script (the Bourne-compatible
/// `.` command). `$*`/`$0` are bound to the arguments/file lexically.
pub fn dot<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let Some(file) = arg::<String, _>(m, args, 1) else {
        return Err(m.error(". : missing file name"));
    };
    let desc = match es_os::retry_intr(|| m.os_mut().open(&file, es_os::OpenMode::Read)) {
        Ok(d) => d,
        Err(e) => return Err(m.error(&format!(". {file}: {}", e.strerror()))),
    };
    let bytes = es_os::read_all(m.os_mut(), desc);
    m.close_desc(desc);
    let bytes = match bytes {
        // A script half-read is a script half-run; fail loudly.
        Err(e) => return Err(m.error(&format!(". {file}: {e}"))),
        Ok(b) => b,
    };
    let src = String::from_utf8_lossy(&bytes).into_owned();
    let node = match m.parse(&src) {
        Ok(node) => node,
        Err(e) => return Err(m.error(&format!(". {file}: parse error: {}", e.msg))),
    };
    // Bind $* and $0 lexically for the script.
    let base = m.heap.roots_len();
    let script_args = m.heap.pair_tail(m.heap.root(args));
    let a_slot = m.heap.push_root(script_args);
    let chain = m.heap.push_root(m.heap.root(env));
    crate::eval::bind_invocation(m, chain, Some(a_slot), &file);
    m.push_input(Input::Text { src, pos: 0 });
    let result = crate::eval::eval_node(m, &node, chain, None);
    m.pop_input();
    let out = match result {
        Ok(flow) => Ok(Flow::Val(must_value(flow))),
        Err(e) => Err(e),
    };
    m.heap.truncate_roots(base);
    out
}

/// `$&parse [prompt1 [prompt2]]` — print `prompt1` on stderr, read one
/// (possibly continued, prompting with `prompt2`) command from the
/// current input source, and return it as a thunk. Throws `eof` when
/// the source is exhausted — this is the engine under Figure 3's
/// `%parse $prompt`.
pub fn parse<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot) -> EsResult<Flow> {
    let p1: String = arg(m, args, 1).unwrap_or_default();
    let p2: String = arg(m, args, 2).unwrap_or_default();
    if !p1.is_empty() {
        let _ = m.write_fd(2, p1.as_bytes());
    }
    let mut acc = match m.read_line() {
        Some(line) => line,
        None => return Err(m.exception(&["eof"])),
    };
    loop {
        match m.parse(&acc) {
            Ok(node) => {
                let lambda = std::rc::Rc::new(es_syntax::ast::Lambda {
                    params: None,
                    body: node,
                });
                let base = m.heap.roots_len();
                let clo = m.heap.alloc_closure(lambda, Ref::NIL);
                let c = m.heap.push_root(clo);
                let out = m.heap.alloc_pair(m.heap.root(c), Ref::NIL);
                m.heap.truncate_roots(base);
                return Ok(Flow::Val(out));
            }
            Err(e) if e.incomplete => {
                if !p2.is_empty() {
                    let _ = m.write_fd(2, p2.as_bytes());
                }
                match m.read_line() {
                    Some(line) => {
                        acc.push('\n');
                        acc.push_str(&line);
                    }
                    None => return Err(m.exception(&["eof"])),
                }
            }
            Err(e) => return Err(m.error(&format!("parse error: {}", e.msg))),
        }
    }
}

/// `$&gcstats` — collection statistics as a flat key/value list
/// (reproduction extra backing experiment E4).
pub fn gcstats<O: Os + Clone>(m: &mut Machine<O>) -> EsResult<Flow> {
    let s = m.heap.stats().clone();
    let pairs = [
        ("collections", s.collections.to_string()),
        ("allocated", s.allocated.to_string()),
        ("copied", s.copied.to_string()),
        ("bytes-copied", s.bytes_copied.to_string()),
        ("live", s.live_after_last.to_string()),
        ("budget-collections", s.budget_collections.to_string()),
        ("pause-ns", s.pause_total.as_nanos().to_string()),
        ("pause-max-ns", s.pause_max.as_nanos().to_string()),
    ];
    let mut flat: Vec<String> = Vec::new();
    for (k, v) in pairs {
        flat.push(k.to_string());
        flat.push(v);
    }
    let refs: Vec<&str> = flat.iter().map(String::as_str).collect();
    Ok(Flow::Val(value::list_from_strs(&mut m.heap, &refs)))
}
