//! A server runs in its caller's thread: every slot worker runs on a
//! fiber there, so serving starts no thread.
//!
//! This file holds one test, so no other test's thread comes or goes
//! while it counts.

use es_serve::{Frame, ServeConfig, Server};

/// Threads of this process, as `/proc/self/task` lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn serving_starts_no_thread() {
    let before = threads();
    let mut server = Server::new(ServeConfig {
        capacity: 8,
        high_water: 8,
        ..ServeConfig::default()
    });
    assert_eq!(threads(), before, "after Server::new");
    let Frame::Opened { sid } = server.feed(Frame::Open {
        limits: vec![],
        fault_seed: None,
    })[0] else {
        panic!("the session opened");
    };
    server.feed(Frame::Line {
        sid,
        cmd: "echo served | wc -c".to_string(),
    });
    let frames = server.pump(100);
    assert!(
        frames.contains(&Frame::Out {
            sid,
            bytes: b"7\n".to_vec()
        }),
        "{frames:?}"
    );
    assert_eq!(
        server.feed(Frame::Close { sid }),
        vec![Frame::Closed { sid }]
    );
    assert_eq!(threads(), before, "after a served session");
    drop(server);
    assert_eq!(threads(), before, "after drop");
}
