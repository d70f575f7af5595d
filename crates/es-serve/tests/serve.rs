//! Serving-path integration tests: admission, fairness, containment,
//! recycling purity, drain, and the serve-vs-direct differential.

use es_os::SimOs;
use es_serve::proto::{FaultClass, Frame};
use es_serve::server::{ServeConfig, Server};
use es_serve::{SlotState, PANIC_PROBE};
use std::cell::Cell;
use std::rc::Rc;

fn cfg(capacity: usize, high_water: usize) -> ServeConfig {
    ServeConfig {
        capacity,
        high_water,
        ..ServeConfig::default()
    }
}

fn open(server: &mut Server) -> u64 {
    open_with(server, vec![], None)
}

fn open_with(server: &mut Server, limits: Vec<(String, u64)>, fault_seed: Option<u64>) -> u64 {
    match server
        .feed(Frame::Open { limits, fault_seed })
        .first()
        .expect("open answered")
    {
        Frame::Opened { sid } => *sid,
        other => panic!("expected Opened, got {other:?}"),
    }
}

fn line(server: &mut Server, sid: u64, cmd: &str) {
    let resp = server.feed(Frame::Line {
        sid,
        cmd: cmd.to_string(),
    });
    assert!(resp.is_empty(), "line should queue silently: {resp:?}");
}

/// Pumps until quiescent, collecting every emitted frame.
fn pump_all(server: &mut Server) -> Vec<Frame> {
    let mut out = Vec::new();
    loop {
        let batch = server.pump(10_000);
        if batch.is_empty() {
            break;
        }
        out.extend(batch);
    }
    out
}

fn stdout_of(frames: &[Frame], sid: u64) -> String {
    let mut s = String::new();
    for f in frames {
        if let Frame::Out { sid: fsid, bytes } = f {
            if *fsid == sid {
                s.push_str(std::str::from_utf8(bytes).expect("utf8 stdout"));
            }
        }
    }
    s
}

fn stderr_of(frames: &[Frame], sid: u64) -> String {
    let mut s = String::new();
    for f in frames {
        if let Frame::Err { sid: fsid, bytes } = f {
            if *fsid == sid {
                s.push_str(std::str::from_utf8(bytes).expect("utf8 stderr"));
            }
        }
    }
    s
}

fn dones_of(frames: &[Frame], sid: u64) -> Vec<(bool, String)> {
    frames
        .iter()
        .filter_map(|f| match f {
            Frame::Done {
                sid: fsid,
                ok,
                value,
            } if *fsid == sid => Some((*ok, value.clone())),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------

#[test]
fn basic_session_runs_commands_and_closes_clean() {
    let mut server = Server::new(cfg(2, 2));
    let sid = open(&mut server);
    line(&mut server, sid, "echo hello, serve");
    line(&mut server, sid, "x = a b c; echo $x(2)");
    let frames = pump_all(&mut server);
    assert_eq!(stdout_of(&frames, sid), "hello, serve\nb\n");
    assert_eq!(
        dones_of(&frames, sid),
        vec![(true, "0".into()), (true, "0".into())]
    );
    let closed = server.feed(Frame::Close { sid });
    assert_eq!(closed, vec![Frame::Closed { sid }]);
    assert_eq!(server.stats().oracle_violations, 0);
    assert_eq!(server.live(), 0);
}

#[test]
fn unknown_session_gets_nosession_fault() {
    let mut server = Server::new(cfg(1, 1));
    let resp = server.feed(Frame::Line {
        sid: 99,
        cmd: "echo hi".into(),
    });
    assert!(matches!(
        resp.first(),
        Some(Frame::Fault {
            sid: 99,
            class: FaultClass::NoSession,
            ..
        })
    ));
    let resp = server.feed(Frame::Close { sid: 42 });
    assert!(matches!(
        resp.first(),
        Some(Frame::Fault {
            sid: 42,
            class: FaultClass::NoSession,
            ..
        })
    ));
}

/// Satellite: an infinite loop in one session must not delay another
/// session's command past its timeslice budget. Session A spins in
/// `while {true} {}` under a huge step budget; session B's `echo`
/// still completes within a couple of scheduling rounds.
#[test]
fn runaway_session_does_not_starve_neighbors() {
    let mut server = Server::new(cfg(2, 2));
    let a = open_with(&mut server, vec![("steps".into(), 10_000_000)], None);
    let b = open(&mut server);
    line(&mut server, a, "while {true} {}");
    line(&mut server, b, "echo prompt service");
    // Round-robin grants: B shares every round with A, so B's one
    // command (well under two slices of work) finishes within a few
    // rounds no matter how long A keeps spinning.
    let mut got_b = Vec::new();
    let mut rounds = 0;
    while dones_of(&got_b, b).is_empty() {
        got_b.extend(server.pump(4));
        rounds += 1;
        assert!(rounds <= 4, "B's echo was delayed past its slice budget");
    }
    assert_eq!(stdout_of(&got_b, b), "prompt service\n");
    assert_eq!(dones_of(&got_b, b), vec![(true, "0".into())]);
    // A really was running the whole time (it consumed slices), and is
    // still running now.
    assert!(dones_of(&got_b, a).is_empty());
    // Closing A cancels the runaway command; the server survives.
    let closed = server.feed(Frame::Close { sid: a });
    assert!(closed.iter().any(|f| matches!(
        f,
        Frame::Fault {
            class: FaultClass::Cancelled,
            ..
        }
    )));
    assert!(closed
        .iter()
        .any(|f| matches!(f, Frame::Closed { sid } if *sid == a)));
    assert_eq!(server.stats().cancelled, 1);
}

/// Satellite: the governor's 90% warning lands on the owning session's
/// stderr stream — as an `Err` frame for that sid — not on the server
/// process's stderr and not in any other session's stream.
#[test]
fn governor_warning_routes_to_owning_session_stderr() {
    let mut server = Server::new(cfg(2, 2));
    let noisy = open_with(&mut server, vec![("output".into(), 200)], None);
    let quiet = open(&mut server);
    let long = "a".repeat(185);
    line(&mut server, noisy, &format!("echo {long}; echo ok"));
    line(&mut server, quiet, "echo calm");
    let frames = pump_all(&mut server);
    let warn = stderr_of(&frames, noisy);
    assert!(
        warn.contains("es: warning: output limit at"),
        "expected 90% warning on noisy session stderr, got {warn:?}"
    );
    assert_eq!(
        stderr_of(&frames, quiet),
        "",
        "warning leaked across sessions"
    );
    // Both commands completed: the warning is advisory, not a breach.
    assert_eq!(dones_of(&frames, noisy), vec![(true, "0".into())]);
    assert_eq!(stdout_of(&frames, quiet), "calm\n");
}

/// A budget breach is a per-command error; the session survives and
/// its next command gets a fresh budget.
#[test]
fn budget_breach_is_survivable_per_command_error() {
    let mut server = Server::new(cfg(1, 1));
    let sid = open_with(&mut server, vec![("steps".into(), 800)], None);
    line(&mut server, sid, "while {true} {}");
    line(&mut server, sid, "echo still alive");
    let frames = pump_all(&mut server);
    let dones = dones_of(&frames, sid);
    assert_eq!(dones.len(), 2);
    assert!(!dones[0].0, "runaway loop should breach");
    assert!(
        dones[0].1.contains("limit steps"),
        "breach error text: {:?}",
        dones[0].1
    );
    assert!(dones[1].0, "session must survive the breach");
    assert_eq!(stdout_of(&frames, sid), "still alive\n");
    assert_eq!(server.stats().failed, 1);
    assert_eq!(server.stats().completed, 1);
    // And the session still closes clean.
    let closed = server.feed(Frame::Close { sid });
    assert_eq!(closed, vec![Frame::Closed { sid }]);
}

/// A panic is caught at the slot boundary: the tenant gets a Fault
/// frame, the slot is scrubbed and reused, and other sessions never
/// notice. The scrubbed slot still timeslices: a runaway on it does
/// not delay its neighbour's command.
#[test]
fn panic_is_contained_to_its_slot() {
    let mut server = Server::new(cfg(2, 2));
    let victim = open(&mut server);
    let bystander = open(&mut server);
    line(&mut server, victim, "echo before");
    line(&mut server, victim, PANIC_PROBE);
    line(&mut server, bystander, "echo unbothered");
    let frames = pump_all(&mut server);
    assert!(frames.iter().any(|f| matches!(
        f,
        Frame::Fault {
            sid,
            class: FaultClass::Panic,
            ..
        } if *sid == victim
    )));
    assert!(frames
        .iter()
        .any(|f| matches!(f, Frame::Closed { sid } if *sid == victim)));
    assert_eq!(stdout_of(&frames, victim), "before\n");
    assert_eq!(stdout_of(&frames, bystander), "unbothered\n");
    assert_eq!(dones_of(&frames, bystander), vec![(true, "0".into())]);
    let stats = server.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.scrubs, 1);
    assert_eq!(stats.retired, 0, "scrub must return the slot to rotation");
    assert_eq!(stats.oracle_violations, 0);
    // The runaway lands on the scrubbed slot, the only free one.
    let runaway = open_with(&mut server, vec![("steps".into(), 1_000_000)], None);
    assert_eq!(server.pool().state(0), SlotState::Leased);
    line(&mut server, runaway, "while {true} {}");
    line(&mut server, bystander, "echo neighbour");
    let mut frames = Vec::new();
    let mut rounds = 0;
    while dones_of(&frames, bystander).is_empty() {
        frames.extend(server.pump(4));
        rounds += 1;
        assert!(
            rounds <= 4,
            "the neighbour's echo was delayed past its slice budget"
        );
    }
    assert_eq!(stdout_of(&frames, bystander), "neighbour\n");
    assert!(
        dones_of(&frames, runaway).is_empty(),
        "the runaway ran to its end in one go: the scrub lost the yield hook"
    );
    server.feed(Frame::Close { sid: runaway });
    // The scrubbed slot serves again.
    let again = open(&mut server);
    line(&mut server, again, "echo reused");
    let frames = pump_all(&mut server);
    assert_eq!(stdout_of(&frames, again), "reused\n");
}

/// A `%pathsearch` that names an unbound command loops through
/// itself: the tenant gets an ordinary failed command ("function
/// definition loop") instead of the server dying when the slot's stack
/// runs out, and the next session on the server runs normally.
#[test]
fn pathsearch_loop_fails_the_command_not_the_server() {
    let mut server = Server::new(cfg(1, 1));
    let sid = open(&mut server);
    line(&mut server, sid, "fn-%pathsearch = nosuch; nosuch2");
    let frames = pump_all(&mut server);
    let dones = dones_of(&frames, sid);
    assert_eq!(dones.len(), 1, "{frames:?}");
    assert!(!dones[0].0, "the command failed: {dones:?}");
    assert!(dones[0].1.contains("function definition loop"), "{dones:?}");
    assert_eq!(
        server.feed(Frame::Close { sid }),
        vec![Frame::Closed { sid }]
    );
    let next = open(&mut server);
    line(&mut server, next, "echo next tenant | tr a-z A-Z");
    let frames = pump_all(&mut server);
    assert_eq!(stdout_of(&frames, next), "NEXT TENANT\n");
    assert_eq!(dones_of(&frames, next), vec![(true, "0".into())]);
    assert_eq!(server.stats().oracle_violations, 0);
}

/// A backslash not followed by a newline is an ordinary word
/// character, so a tenant's line holding one lexes like any other (it
/// once made the lexer loop forever on the server's thread).
#[test]
fn lone_backslash_line_runs_and_the_server_goes_on() {
    let mut server = Server::new(cfg(1, 1));
    let sid = open(&mut server);
    line(&mut server, sid, "echo a\\b");
    let frames = pump_all(&mut server);
    assert_eq!(stdout_of(&frames, sid), "a\\b\n");
    assert_eq!(dones_of(&frames, sid), vec![(true, "0".into())]);
    assert_eq!(
        server.feed(Frame::Close { sid }),
        vec![Frame::Closed { sid }]
    );
    let next = open(&mut server);
    line(&mut server, next, "echo next tenant | tr a-z A-Z");
    let frames = pump_all(&mut server);
    assert_eq!(stdout_of(&frames, next), "NEXT TENANT\n");
    assert_eq!(dones_of(&frames, next), vec![(true, "0".into())]);
    assert_eq!(server.stats().oracle_violations, 0);
}

/// A scrub whose fresh boot fails (here the slot's kernel setup panics
/// on the third boot) reports every check failed: the slot is
/// retired, and the server goes on serving from its other slot.
#[test]
fn worker_that_dies_in_its_scrub_is_retired() {
    let boots = Rc::new(Cell::new(0));
    let b = Rc::clone(&boots);
    let mut server = Server::new(ServeConfig {
        os_setup: Some(Rc::new(move |_: &mut SimOs| {
            b.set(b.get() + 1);
            assert!(b.get() <= 2, "only the pool's first boots succeed");
        })),
        ..cfg(2, 2)
    });
    let victim = open(&mut server);
    line(&mut server, victim, PANIC_PROBE);
    let frames = pump_all(&mut server);
    assert!(frames
        .iter()
        .any(|f| matches!(f, Frame::Closed { sid } if *sid == victim)));
    assert_eq!(boots.get(), 3, "the scrub booted once more");
    assert_eq!(server.pool().state(0), SlotState::Retired);
    let stats = server.stats();
    assert_eq!((stats.panics, stats.scrubs, stats.retired), (1, 1, 1));
    assert_eq!(stats.oracle_violations, 1, "the lost worker audits dirty");
    let next = open(&mut server);
    line(&mut server, next, "echo still serving");
    let frames = pump_all(&mut server);
    assert_eq!(stdout_of(&frames, next), "still serving\n");
    assert_eq!(server.pool().state(1), SlotState::Leased);
}

/// Admission control: opens beyond the high-water mark are shed with
/// exponentially growing retry hints; the streak resets on a
/// successful admit; already-admitted sessions are unaffected.
#[test]
fn shedding_backs_off_and_recovers() {
    let mut server = Server::new(cfg(2, 1));
    let sid = open(&mut server);
    line(&mut server, sid, "echo admitted");

    let shed1 = server.feed(Frame::Open {
        limits: vec![],
        fault_seed: None,
    });
    let shed2 = server.feed(Frame::Open {
        limits: vec![],
        fault_seed: None,
    });
    let (
        Some(Frame::Shed {
            retry_after_ms: r1,
            attempt: a1,
        }),
        Some(Frame::Shed {
            retry_after_ms: r2,
            attempt: a2,
        }),
    ) = (shed1.first(), shed2.first())
    else {
        panic!("expected two sheds: {shed1:?} {shed2:?}");
    };
    assert_eq!((*a1, *a2), (0, 1));
    assert_eq!(
        *r2,
        *r1 * 2,
        "backoff hint must double per consecutive shed"
    );

    // The admitted session is untouched by the shedding.
    let frames = pump_all(&mut server);
    assert_eq!(stdout_of(&frames, sid), "admitted\n");

    // Freeing capacity admits again and resets the streak.
    server.feed(Frame::Close { sid });
    let sid2 = open(&mut server);
    server.feed(Frame::Close { sid: sid2 });
    // Fill back to high water, then shed: attempt restarts at 0.
    let sid3 = open(&mut server);
    let shed3 = server.feed(Frame::Open {
        limits: vec![],
        fault_seed: None,
    });
    assert!(matches!(
        shed3.first(),
        Some(Frame::Shed { attempt: 0, .. })
    ));
    server.feed(Frame::Close { sid: sid3 });
    assert_eq!(server.stats().shed, 3);
}

/// Drain: in-flight commands get the grace budget; quick ones finish,
/// stragglers are cancelled; everything closes; new opens are shed.
#[test]
fn drain_finishes_quick_work_and_cancels_stragglers() {
    let mut server = Server::new(ServeConfig {
        capacity: 3,
        high_water: 3,
        slice_steps: 10,
        ..ServeConfig::default()
    });
    let spinner = open_with(&mut server, vec![("steps".into(), 10_000_000)], None);
    let quick = open(&mut server);
    let idle = open(&mut server);
    line(&mut server, spinner, "while {true} {}");
    // Bounded work, several 10-step slices long: still in flight when
    // the drain arrives, done well inside the grace budget.
    line(
        &mut server,
        quick,
        "n = a; while {!~ $n aaaaaaaaaaaaaaaaaaaa} { n = $n^a }; echo finishing",
    );
    // One grant each: both commands are now in flight.
    server.pump(2);

    let resp = server.feed(Frame::Drain { grace: 100 });
    // The idle session closes immediately.
    assert!(resp
        .iter()
        .any(|f| matches!(f, Frame::Closed { sid } if *sid == idle)));

    let frames = pump_all(&mut server);
    assert_eq!(stdout_of(&frames, quick), "finishing\n");
    assert!(frames.iter().any(|f| matches!(
        f,
        Frame::Fault { sid, class: FaultClass::Cancelled, detail } if *sid == spinner && detail == "drain deadline"
    )));
    let drained = frames
        .iter()
        .find_map(|f| match f {
            Frame::Drained {
                finished,
                cancelled,
            } => Some((*finished, *cancelled)),
            _ => None,
        })
        .expect("drain must complete");
    assert_eq!(drained, (1, 1));
    assert_eq!(server.live(), 0);

    // Post-drain opens are shed.
    let resp = server.feed(Frame::Open {
        limits: vec![],
        fault_seed: None,
    });
    assert!(matches!(resp.first(), Some(Frame::Shed { .. })));
}

/// Recycling purity: a session that dirties everything it can reach —
/// globals, functions, hook bindings, files, redirections — leaves no
/// trace for the slot's next tenant, and the release passes the reset
/// oracle (no Oracle fault).
#[test]
fn recycled_slot_shows_no_previous_tenant_state() {
    let mut server = Server::new(cfg(1, 1));
    let dirty = open(&mut server);
    line(&mut server, dirty, "x = leaked; fn f { echo leaked-fn }");
    line(&mut server, dirty, "fn-%pipe = @ { echo hooked }");
    line(&mut server, dirty, "echo contaminant > /tmp/leak");
    let frames = pump_all(&mut server);
    assert_eq!(dones_of(&frames, dirty).len(), 3);
    let closed = server.feed(Frame::Close { sid: dirty });
    assert_eq!(
        closed,
        vec![Frame::Closed { sid: dirty }],
        "recycle must pass the reset oracle (no Oracle fault)"
    );

    // Same single slot, next tenant: nothing persists.
    let fresh = open(&mut server);
    line(&mut server, fresh, "echo val: $x");
    line(&mut server, fresh, "echo a | cat");
    line(&mut server, fresh, "cat /tmp/leak");
    let frames = pump_all(&mut server);
    assert_eq!(
        stdout_of(&frames, fresh),
        "val:\na\n",
        "previous tenant's global/hook/file state leaked"
    );
    let dones = dones_of(&frames, fresh);
    // `cat` of a missing file exits nonzero (it is not an es error).
    assert_ne!(
        dones[2],
        (true, "0".into()),
        "/tmp/leak should not exist for a new tenant"
    );
    assert_eq!(server.stats().oracle_violations, 0);
}

/// Closing a session whose command was taken off its queue but never
/// given a slice cancels that command without running it: the
/// session gets `Cancelled` and `Closed` and no output, its slot
/// audits clean, and the slot's next tenant sees none of its state.
#[test]
fn closing_before_the_first_slice_cancels_without_running() {
    let mut server = Server::new(cfg(2, 2));
    let first = open(&mut server);
    let second = open(&mut server);
    line(&mut server, first, "echo first");
    line(
        &mut server,
        second,
        "x = leaked; echo leaked > /tmp/leak; echo second",
    );
    // One slice: the first session's command runs to its end, and the
    // second's is taken off its queue but not delivered.
    let frames = server.pump(1);
    assert_eq!(stdout_of(&frames, first), "first\n");
    assert!(frames
        .iter()
        .all(|f| !matches!(f, Frame::Out { sid, .. } if *sid == second)));

    let closed = server.feed(Frame::Close { sid: second });
    assert_eq!(
        closed,
        vec![
            Frame::Fault {
                sid: second,
                class: FaultClass::Cancelled,
                detail: "session closed".into(),
            },
            Frame::Closed { sid: second },
        ]
    );
    assert_eq!(server.stats().cancelled, 1);
    assert_eq!(server.stats().oracle_violations, 0);

    // The freed slot is the only one left; its next tenant finds no
    // trace of the cancelled command.
    let next = open(&mut server);
    line(&mut server, next, "echo val: $x");
    line(&mut server, next, "cat /tmp/leak");
    let frames = pump_all(&mut server);
    assert_eq!(stdout_of(&frames, next), "val:\n");
    assert_ne!(dones_of(&frames, next)[1], (true, "0".into()));
}

/// The serving path is just a transport: a session's output and
/// per-command outcomes through the server match a directly-driven
/// machine byte for byte.
#[test]
fn serve_matches_direct_execution() {
    let script = [
        "echo hello, world",
        "x = a b c; echo $x(2) $x(1)",
        "let (i = one two) { echo $i }",
        "fn f a { echo <$a> }; f 7",
        "echo hi | wc -l",
        "echo stored > /tmp/f; cat /tmp/f",
        "catch @ e { echo caught $e } { throw error boom }",
        "result 1 2 3",
    ];
    // Direct: one machine, the conformance harness's entry point.
    let mut m = es_core::Machine::new(es_os::SimOs::new()).expect("boot");
    let direct = es_core::harness::run_session(&mut m, &script);

    // Served: same commands through open/line/pump/close.
    let mut server = Server::new(cfg(1, 1));
    let sid = open(&mut server);
    for cmd in &script {
        line(&mut server, sid, cmd);
    }
    let frames = pump_all(&mut server);
    let served_outcomes: Vec<String> = dones_of(&frames, sid)
        .into_iter()
        .map(|(ok, v)| format!("{}: {v}", if ok { "ok" } else { "err" }))
        .collect();
    let direct_outcomes: Vec<String> = direct
        .outcomes
        .iter()
        .map(|o| o.trim_end().to_string())
        .collect();
    assert_eq!(
        served_outcomes
            .iter()
            .map(|o| o.trim_end().to_string())
            .collect::<Vec<_>>(),
        direct_outcomes
    );
    assert_eq!(stdout_of(&frames, sid), direct.stdout);
    assert_eq!(stderr_of(&frames, sid), direct.stderr);
}

/// Feeding a server-to-client frame is rejected, not crashed on.
#[test]
fn server_frames_are_rejected_as_input() {
    let mut server = Server::new(cfg(1, 1));
    let resp = server.feed(Frame::Opened { sid: 1 });
    assert!(matches!(
        resp.first(),
        Some(Frame::Fault {
            class: FaultClass::NoSession,
            ..
        })
    ));
}

/// Opening with a bogus limit kind fails cleanly and frees the slot.
#[test]
fn bad_limit_kind_is_rejected_cleanly() {
    let mut server = Server::new(cfg(1, 1));
    let resp = server.feed(Frame::Open {
        limits: vec![("bogons".into(), 5)],
        fault_seed: None,
    });
    assert!(matches!(
        resp.first(),
        Some(Frame::Fault {
            class: FaultClass::NoSession,
            ..
        })
    ));
    // The slot was not leaked: a well-formed open still succeeds.
    let sid = open(&mut server);
    assert_eq!(sid, 1);
}

/// Fault weather (a seeded FaultPlan) stays session-scoped: the
/// weathered session sees errors, the calm one on the same server
/// does not, and recycling clears the plan: the next tenant of the
/// stormy session's slot runs the same lines without one failure.
#[test]
fn fault_weather_is_per_session() {
    let mut server = Server::new(cfg(2, 2));
    let stormy = open_with(&mut server, vec![], Some(7));
    let calm = open(&mut server);
    for _ in 0..60 {
        line(
            &mut server,
            stormy,
            "echo x > /tmp/wf; cat /tmp/wf; echo y | cat",
        );
        line(
            &mut server,
            calm,
            "echo x > /tmp/cf; cat /tmp/cf; echo y | cat",
        );
    }
    let frames = pump_all(&mut server);
    // Calm session: every command succeeds with status 0.
    let calm_dones = dones_of(&frames, calm);
    assert!(
        calm_dones.iter().all(|(ok, v)| *ok && v == "0"),
        "calm session caught the weather: {calm_dones:?}"
    );
    // The stormy session saw at least one injected failure (12/1024
    // per syscall over ~hundreds of syscalls). A fault surfaces either
    // as an es error (redirection failure) or a nonzero exit status
    // (a program's own read/write failed).
    let stormy_dones = dones_of(&frames, stormy);
    assert!(
        stormy_dones.iter().any(|(ok, v)| !*ok || v != "0"),
        "weather never materialized: {stormy_dones:?}"
    );
    // Weathered slot still recycles clean.
    let closed = server.feed(Frame::Close { sid: stormy });
    assert_eq!(closed, vec![Frame::Closed { sid: stormy }]);
    assert_eq!(server.stats().oracle_violations, 0);
    // The next session takes the stormy session's slot, the lowest
    // free one, and sees no weather.
    let after = open(&mut server);
    assert_eq!(server.pool().state(0), SlotState::Leased);
    for _ in 0..60 {
        line(
            &mut server,
            after,
            "echo x > /tmp/wf; cat /tmp/wf; echo y | cat",
        );
    }
    let after_dones = dones_of(&pump_all(&mut server), after);
    assert_eq!(after_dones.len(), 60);
    assert!(
        after_dones.iter().all(|(ok, v)| *ok && v == "0"),
        "the weather outlived its session: {after_dones:?}"
    );
}
