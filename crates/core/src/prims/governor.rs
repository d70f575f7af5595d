//! `$&limit` and `$&limits` — the shell-space face of the resource
//! governor (bound as `%limit`/`limits` in `initial.es`).

use super::{apply_thunk, arg_slot};
use crate::eval::{must_value, Flow};
use crate::exception::EsResult;
use crate::governor::{self, Kind};
use crate::machine::Machine;
use crate::value::{self, ListBuilder};
use es_gc::RootSlot;
use es_os::Os;

/// `$&limit kind n` arms `kind` at `n` permanently (a raw set, like
/// the CLI flag). `$&limit kind n {cmd}` runs the thunk under the
/// limit tightened to `n` — never loosened, so nested sandboxes
/// compose — and restores the previous limits on every exit path,
/// value or exception.
pub fn limit_prim<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    env: RootSlot,
) -> EsResult<Flow> {
    let strs = m.strings_at(args);
    if strs.len() < 2 {
        return Err(m.error("limit: usage: %limit kind value [cmd]"));
    }
    let Some(kind) = Kind::parse(&strs[0]) else {
        return Err(m.error(&format!(
            "limit: unknown kind '{}' (expected {})",
            strs[0],
            Kind::choices()
        )));
    };
    let value: u64 = match strs[1].parse() {
        Ok(v) => v,
        Err(_) => return Err(m.error(&format!("limit: bad value '{}'", strs[1]))),
    };
    let abs = governor::resolve(m, kind, value);
    let n = value::list_len(&m.heap, m.heap.root(args));
    if n == 2 {
        m.governor_mut().set(kind, Some(abs));
        return Ok(Flow::Val(value::true_value(&mut m.heap)));
    }
    // Scoped form: tighten, run the body, restore.
    let snap = m.governor().snapshot();
    m.governor_mut().tighten(kind, abs);
    let base = m.heap.roots_len();
    let body = arg_slot(m, args, 3).expect("list_len said there is a third argument");
    let result = apply_thunk(m, body, env, None);
    m.heap.truncate_roots(base);
    m.governor_mut().restore(snap);
    let flow = result?;
    Ok(Flow::Val(must_value(flow)))
}

/// `$&limits` — introspection: a flat list of `kind used max` triples
/// for all six kinds, `unlimited` where nothing is armed. For `time`,
/// "used" is the current virtual clock in ns and "max" the deadline.
pub fn limits_prim<O: Os + Clone>(m: &mut Machine<O>) -> EsResult<Flow> {
    let mut rows: Vec<(Kind, u64, Option<u64>)> = Vec::new();
    for kind in Kind::ALL {
        let max = m.governor().limits().get(kind);
        let used = match kind {
            Kind::Depth => m.depth as u64,
            Kind::Steps => m.governor().steps(),
            Kind::Heap => m.heap.len() as u64,
            Kind::Fds => m.os().open_desc_count() as u64,
            Kind::Output => m.governor().out_bytes(),
            Kind::Time => m.os().now_ns(),
        };
        rows.push((kind, used, max));
    }
    let mut b = ListBuilder::new(&mut m.heap);
    for (kind, used, max) in rows {
        b.push_str(&mut m.heap, kind.name());
        b.push_str(&mut m.heap, &used.to_string());
        match max {
            Some(v) => b.push_str(&mut m.heap, &v.to_string()),
            None => b.push_str(&mut m.heap, "unlimited"),
        }
    }
    Ok(Flow::Val(b.finish(&m.heap)))
}
