//! The differential conformance suite: every scenario runs on SimOs
//! (always) and RealOs (Both mode, tools permitting); traces must
//! agree on every oracle field or carry a divergence-ledger entry.
//! Zero silent mismatches, zero stale ledger entries.

use es_conform::report::{record, Value};
use es_conform::scenarios::ledger_entry;
use es_conform::{compare, have_tools, run_real, run_sim, Mode, LEDGER, SCENARIOS};
use std::collections::BTreeSet;
use std::time::Instant;

#[test]
fn conformance_scenarios_agree_or_are_ledgered() {
    let started = Instant::now();
    let mut both_run = 0usize;
    let mut sim_only = 0usize;
    let mut skipped: Vec<&str> = Vec::new();
    let mut silent: Vec<String> = Vec::new();
    let mut ledgered = 0usize;
    let mut fired: BTreeSet<&'static str> = BTreeSet::new();

    for sc in SCENARIOS {
        eprintln!("scenario: {}", sc.name);
        let (sim, _faults) = run_sim(sc.script, sc.fault_seed, false);
        assert_eq!(
            sim.fd_delta(),
            0,
            "scenario {} leaks descriptors on SimOs",
            sc.name
        );
        let reason = match sc.mode {
            Mode::SimOnly(reason) => Some(reason),
            Mode::Both => None,
        };
        if let Some(reason) = reason {
            assert!(!reason.is_empty());
            sim_only += 1;
            continue;
        }
        if !have_tools(sc.needs) {
            skipped.push(sc.name);
            continue;
        }
        let real = run_real(sc.script);
        assert_eq!(
            real.fd_delta(),
            0,
            "scenario {} leaks descriptors on RealOs",
            sc.name
        );
        both_run += 1;
        for d in compare(sc.name, &sim, &real) {
            match ledger_entry(sc.name, d.field) {
                Some(entry) => {
                    fired.insert(entry.scenario);
                    ledgered += 1;
                }
                None => silent.push(d.to_string()),
            }
        }
    }

    assert!(
        silent.is_empty(),
        "silent SimOs/RealOs mismatches (fix them or ledger them):\n{}",
        silent.join("\n")
    );
    // The ledger must stay honest: every entry still fires (unless its
    // scenario was skipped for missing tools on this host).
    for entry in LEDGER {
        assert!(
            fired.contains(entry.scenario) || skipped.contains(&entry.scenario),
            "stale ledger entry: {} [{}] no longer diverges — delete it",
            entry.scenario,
            entry.field
        );
    }
    assert!(
        both_run >= 40,
        "need at least 40 differential scenarios, ran {both_run} \
         (skipped for missing tools: {skipped:?})"
    );

    let ledger_text = LEDGER
        .iter()
        .map(|e| format!("{} [{}]", e.scenario, e.field))
        .collect::<Vec<_>>()
        .join("; ");
    record(&[
        ("scenarios_total", Value::Num(SCENARIOS.len() as i64)),
        ("scenarios_both", Value::Num(both_run as i64)),
        ("scenarios_sim_only", Value::Num(sim_only as i64)),
        ("scenarios_skipped", Value::Num(skipped.len() as i64)),
        ("divergences_ledgered", Value::Num(ledgered as i64)),
        ("divergences_silent", Value::Num(silent.len() as i64)),
        ("divergence_ledger", Value::Str(ledger_text)),
    ]);
    // Printed, not recorded: a wall-clock time would dirty the
    // checked-in report on every run.
    eprintln!("wall_ms_conform: {}", started.elapsed().as_millis());
}

/// The collector is invisible: every SimOs scenario, run again with
/// the heap collecting at every allocation, gives the same normalized
/// trace and fault log. A ref held across an allocation without being
/// rooted panics under stress, and a collection that loses or moves a
/// string's bytes wrongly changes a trace.
#[test]
fn stress_gc_leaves_every_sim_trace_unchanged() {
    for sc in SCENARIOS {
        let normal = run_sim(sc.script, sc.fault_seed, false);
        let stressed = run_sim(sc.script, sc.fault_seed, true);
        assert_eq!(
            normal, stressed,
            "scenario {} differs under stress GC",
            sc.name
        );
    }
}
