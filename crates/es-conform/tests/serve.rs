//! Serving-path conformance: every scenario in the table must behave
//! identically whether its script runs on a bare machine (the direct
//! `run_sim` path) or through an `es_serve::Server` session — pooled
//! slot, timesliced scheduling, per-command limits and all. The slot
//! pool, baton scheduler, and console plumbing must be semantically
//! invisible.
//!
//! Fault-weather scenarios ride the same oracle: the seed goes in via
//! `Open { fault_seed }` on the serving side and an identical
//! `FaultPlan` on the direct side, so the injected fault schedule is
//! the same in both worlds.

use es_conform::oracle::TMP_TOKEN;
use es_conform::run::SIM_TMP;
use es_conform::SCENARIOS;
use es_core::harness::run_session;
use es_core::{Machine, Options};
use es_os::{FaultPlan, SimOs};
use es_serve::pool::WEATHER_PER_1024;
use es_serve::{Frame, ServeConfig, Server};
use std::rc::Rc;

/// `run::materialize`, reproduced: prepend the `cd` into scratch and
/// expand `@TMP@`.
fn materialize(script: &[&str]) -> Vec<String> {
    let mut cmds = vec![format!("cd {SIM_TMP}")];
    for line in script {
        cmds.push(line.replace(TMP_TOKEN, SIM_TMP));
    }
    cmds
}

fn scratch_setup(os: &mut SimOs) {
    os.vfs_mut().mkdir_all(SIM_TMP).expect("scratch dir");
    os.vfs_mut()
        .mkdir_all(&format!("{SIM_TMP}/sub"))
        .expect("scratch subdir");
}

/// Direct path: same kernel prep and (serving-rate) fault plan,
/// straight through the conformance harness.
fn run_direct(cmds: &[String], fault_seed: Option<u64>) -> (Vec<String>, String, String) {
    let mut os = SimOs::new();
    scratch_setup(&mut os);
    let mut m = Machine::with_options(os, Options::default()).expect("sim machine boots");
    if let Some(seed) = fault_seed {
        m.os_mut()
            .set_fault_plan(Some(FaultPlan::new(seed).uniform_rate(WEATHER_PER_1024)));
    }
    let trace = run_session(&mut m, cmds);
    (trace.outcomes, trace.stdout, trace.stderr)
}

/// Serving path: one session on a pooled server, frames all the way.
fn run_served(
    server: &mut Server,
    cmds: &[String],
    fault_seed: Option<u64>,
) -> (Vec<String>, String, String) {
    let resp = server.feed(Frame::Open {
        limits: vec![],
        fault_seed,
    });
    let sid = match resp.first() {
        Some(Frame::Opened { sid }) => *sid,
        other => panic!("open not admitted: {other:?}"),
    };
    let mut frames = Vec::new();
    for cmd in cmds {
        frames.extend(server.feed(Frame::Line {
            sid,
            cmd: cmd.clone(),
        }));
    }
    loop {
        let pumped = server.pump(1_000);
        if pumped.is_empty() {
            break;
        }
        frames.extend(pumped);
    }
    frames.extend(server.feed(Frame::Close { sid }));

    let mut outcomes = Vec::new();
    let mut stdout = String::new();
    let mut stderr = String::new();
    for f in &frames {
        match f {
            Frame::Done { sid: s, ok, value } if *s == sid => {
                outcomes.push(format!("{}: {value}", if *ok { "ok" } else { "err" }));
            }
            Frame::Out { sid: s, bytes } if *s == sid => {
                stdout.push_str(&String::from_utf8_lossy(bytes));
            }
            Frame::Err { sid: s, bytes } if *s == sid => {
                stderr.push_str(&String::from_utf8_lossy(bytes));
            }
            Frame::Fault { .. } => panic!("serving a scenario must not fault: {f:?}"),
            _ => {}
        }
    }
    (outcomes, stdout, stderr)
}

fn trimmed(outcomes: &[String]) -> Vec<String> {
    outcomes.iter().map(|o| o.trim_end().to_string()).collect()
}

/// Every table scenario, direct vs served, on one server whose slots
/// get recycled between scenarios — so scenario N+1 also proves the
/// reset oracle left nothing of scenario N behind.
#[test]
fn scenarios_agree_between_direct_and_served() {
    let mut server = Server::new(ServeConfig {
        capacity: 2,
        high_water: 2,
        slice_steps: 97, // deliberately odd: slice boundaries must not show
        session_limits: vec![],
        os_setup: Some(Rc::new(scratch_setup)),
    });
    for sc in SCENARIOS {
        let cmds = materialize(sc.script);
        let direct = run_direct(&cmds, sc.fault_seed);
        let served = run_served(&mut server, &cmds, sc.fault_seed);
        assert_eq!(
            trimmed(&served.0),
            trimmed(&direct.0),
            "{}: outcomes diverged between direct and served",
            sc.name
        );
        assert_eq!(
            served.1, direct.1,
            "{}: stdout diverged between direct and served",
            sc.name
        );
        assert_eq!(
            served.2, direct.2,
            "{}: stderr diverged between direct and served",
            sc.name
        );
    }
    let stats = server.stats();
    assert_eq!(stats.opened as usize, SCENARIOS.len());
    assert_eq!(stats.oracle_violations, 0, "scenarios leaked slot state");
    assert_eq!(stats.panics, 0);
}

/// The weather scenarios really exercise the `Open { fault_seed }`
/// plumbing: at least one table entry carries a seed, and serving the
/// same seeded scenario twice is deterministic.
#[test]
fn seeded_scenarios_are_deterministic_through_the_server() {
    let seeded: Vec<_> = SCENARIOS
        .iter()
        .filter(|s| s.fault_seed.is_some())
        .collect();
    assert!(
        !seeded.is_empty(),
        "scenario table lost its fault-weather entries"
    );
    let mut server = Server::new(ServeConfig {
        capacity: 1,
        high_water: 1,
        session_limits: vec![],
        os_setup: Some(Rc::new(scratch_setup)),
        ..ServeConfig::default()
    });
    for sc in seeded {
        let cmds = materialize(sc.script);
        let a = run_served(&mut server, &cmds, sc.fault_seed);
        let b = run_served(&mut server, &cmds, sc.fault_seed);
        assert_eq!(a, b, "{}: seeded serving run is not replayable", sc.name);
    }
}
