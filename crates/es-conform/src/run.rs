//! Backend runners: boot a machine on each kernel, drive a session
//! through `es_core::harness`, and return normalized traces.

use crate::oracle::{normalize, TMP_TOKEN};
use es_core::harness::{run_session, SessionTrace};
use es_core::Machine;
use es_os::{FaultPlan, RealOs, SimOs};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The simulator-side scratch directory (the VFS is private to each
/// run, so a fixed path is fine).
pub const SIM_TMP: &str = "/tmp/conform";

/// Expands `@TMP@` and prepends the `cd` into the scratch directory.
fn materialize(script: &[impl AsRef<str>], tmp: &str) -> Vec<String> {
    let mut cmds = Vec::with_capacity(script.len() + 1);
    cmds.push(format!("cd {tmp}"));
    for line in script {
        cmds.push(line.as_ref().replace(TMP_TOKEN, tmp));
    }
    cmds
}

/// Runs a session on a fresh simulator machine. Returns the
/// normalized trace and the fault log (empty unless `fault_seed`
/// armed a plan). `stress_gc` runs the session with the heap
/// collecting at every allocation (boot runs normally), so a stale
/// unrooted ref panics at once.
pub fn run_sim(
    script: &[impl AsRef<str>],
    fault_seed: Option<u64>,
    stress_gc: bool,
) -> (SessionTrace, Vec<String>) {
    let mut os = SimOs::new();
    os.vfs_mut()
        .mkdir_all(SIM_TMP)
        .expect("sim scratch dir creates");
    os.vfs_mut()
        .mkdir_all(&format!("{SIM_TMP}/sub"))
        .expect("sim scratch subdir creates");
    let mut m = Machine::new(os).expect("sim machine boots");
    m.heap.set_stress(stress_gc);
    if let Some(seed) = fault_seed {
        m.os_mut()
            .set_fault_plan(Some(FaultPlan::new(seed).uniform_rate(150)));
    }
    let cmds = materialize(script, SIM_TMP);
    let mut trace = run_session(&mut m, &cmds);
    let log: Vec<String> = m
        .os_mut()
        .take_fault_log()
        .iter()
        .map(|e| e.to_string())
        .collect();
    normalize(&mut trace, SIM_TMP);
    (trace, log)
}

static REAL_DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Runs a session on a fresh real-backend machine, in console-capture
/// mode, inside a throwaway temp directory (removed afterwards).
/// Returns the normalized trace.
pub fn run_real(script: &[impl AsRef<str>]) -> SessionTrace {
    let dir = std::env::temp_dir().join(format!(
        "es-conform-{}-{}",
        std::process::id(),
        REAL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(dir.join("sub")).expect("real scratch dir creates");
    let tmp = dir.to_str().expect("temp dir is utf-8").to_string();
    let mut os = RealOs::new();
    os.set_capture(true);
    let mut m = Machine::new(os).expect("real machine boots");
    let cmds = materialize(script, &tmp);
    let mut trace = run_session(&mut m, &cmds);
    normalize(&mut trace, &tmp);
    let _ = std::fs::remove_dir_all(&dir);
    trace
}

/// Are all of `tools` available on the test process's `$PATH`? Used
/// to skip (and report) RealOs scenarios on minimal hosts rather than
/// fail them.
pub fn have_tools(tools: &[&str]) -> bool {
    let path = std::env::var("PATH").unwrap_or_default();
    tools.iter().all(|tool| {
        path.split(':').any(|dir| {
            let cand = std::path::Path::new(dir).join(tool);
            #[cfg(unix)]
            {
                use std::os::unix::fs::PermissionsExt;
                std::fs::metadata(&cand)
                    .map(|m| m.is_file() && m.permissions().mode() & 0o111 != 0)
                    .unwrap_or(false)
            }
            #[cfg(not(unix))]
            {
                cand.is_file()
            }
        })
    })
}
