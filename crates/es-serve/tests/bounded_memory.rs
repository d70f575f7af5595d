//! A server's memory stays bounded: once warm, serving hundreds more
//! sessions leaves the bytes it holds where they were.
//!
//! A counting global allocator tracks the bytes live across every
//! thread (the slot workers allocate too), and this file holds one
//! test, so nothing else runs while it measures.

use es_serve::{Frame, ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

/// Bytes allocated and not yet freed, on any thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// The default `realloc` calls `alloc` and `dealloc` on this allocator,
// so a reallocation is tallied as both.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`
        // (every allocation above is forwarded there).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Slots, and sessions live at once.
const LIVE_SESSIONS: usize = 8;

/// Growth allowed between the two readings: a few buffers reaching
/// their final size, far below one session's traffic per session.
const SLACK_BYTES: isize = 4 << 10;

/// Command `j` of session `i`: a variable, an echo, a pipe, a
/// redirection or a function call, on words that vary per session.
fn command(i: usize, j: usize) -> String {
    let (a, b) = (format!("w{i}x{j}"), format!("v{}", i * 7 + j));
    match (i + j) % 5 {
        0 => format!("x = {a} {b}; echo $x(2)"),
        1 => format!("echo {a} {b}"),
        2 => format!("echo {a} {b} | wc -w"),
        3 => format!("echo {a} > /tmp/s; cat /tmp/s"),
        _ => format!("fn f v {{ echo $v $v }}; f {a}"),
    }
}

/// Serves sessions `from..to`, `LIVE_SESSIONS` at a time, each running
/// 3–5 commands to completion before it closes.
fn serve(server: &mut Server, from: usize, to: usize) {
    let mut i = from;
    while i < to {
        let mut sids = Vec::new();
        for _ in 0..LIVE_SESSIONS.min(to - i) {
            let resp = server.feed(Frame::Open {
                limits: vec![],
                fault_seed: None,
            });
            let [Frame::Opened { sid }] = resp.as_slice() else {
                panic!("session not admitted: {resp:?}");
            };
            for j in 0..3 + i % 3 {
                server.feed(Frame::Line {
                    sid: *sid,
                    cmd: command(i, j),
                });
            }
            sids.push(*sid);
            i += 1;
        }
        while !server.pump(1_000).is_empty() {}
        for sid in sids {
            let closed = server.feed(Frame::Close { sid });
            assert_eq!(closed, vec![Frame::Closed { sid }]);
        }
    }
}

#[test]
fn serving_more_sessions_holds_no_more_memory() {
    let mut server = Server::new(ServeConfig {
        capacity: LIVE_SESSIONS,
        high_water: LIVE_SESSIONS,
        ..ServeConfig::default()
    });
    serve(&mut server, 0, 64);
    let warm = LIVE.load(Ordering::Relaxed);
    serve(&mut server, 64, 512);
    let grown = LIVE.load(Ordering::Relaxed) - warm;
    assert_eq!(server.stats().opened, 512);
    assert_eq!(server.stats().failed, 0);
    assert!(
        grown < SLACK_BYTES,
        "448 more sessions grew live memory by {grown} bytes"
    );
}
