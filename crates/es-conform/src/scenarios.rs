//! The conformance scenario table and the divergence ledger.
//!
//! Each scenario is a short scripted session exercising one paper
//! claim or interpreter subsystem. `Both` scenarios run on the two
//! backends and must agree on every oracle field (or carry a ledger
//! entry); `SimOnly` scenarios document — with the reason inline —
//! the RealOs fidelity gaps the harness cannot bridge.
//!
//! Script conventions: the runner `cd`s into a fresh scratch directory
//! first (pre-created with an empty `sub/` inside), so scripts use
//! relative paths; `@TMP@` expands to the scratch directory when an
//! absolute path is unavoidable.

use crate::oracle::Field;

/// Whether a scenario is differential or simulator-only.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Runs on both backends; traces must agree modulo the ledger.
    Both,
    /// Runs on SimOs only, for the documented reason.
    SimOnly(&'static str),
}

/// One conformance scenario.
#[derive(Debug)]
pub struct Scenario {
    /// Stable name, referenced by ledger entries and reports.
    pub name: &'static str,
    /// The session, one command per entry.
    pub script: &'static [&'static str],
    /// External tools the RealOs side needs on `$PATH`; the scenario
    /// is skipped (and reported) when one is missing.
    pub needs: &'static [&'static str],
    /// Differential or simulator-only.
    pub mode: Mode,
    /// Arm this FaultPlan seed on the simulator (SimOnly weather
    /// scenarios; fault injection is a SimOs-only API).
    pub fault_seed: Option<u64>,
}

const fn both(
    name: &'static str,
    script: &'static [&'static str],
    needs: &'static [&'static str],
) -> Scenario {
    Scenario {
        name,
        script,
        needs,
        mode: Mode::Both,
        fault_seed: None,
    }
}

const fn sim_only(
    name: &'static str,
    script: &'static [&'static str],
    reason: &'static str,
) -> Scenario {
    Scenario {
        name,
        script,
        needs: &[],
        mode: Mode::SimOnly(reason),
        fault_seed: None,
    }
}

/// A documented, intentional SimOs↔RealOs divergence: the named
/// scenario is expected to disagree on the named field, for the given
/// reason. Entries must keep firing — a stale entry fails the suite.
#[derive(Debug)]
pub struct LedgerEntry {
    /// Scenario the divergence appears in.
    pub scenario: &'static str,
    /// The trace field that disagrees.
    pub field: Field,
    /// Why the divergence is intentional.
    pub reason: &'static str,
}

/// The divergence ledger. Empty: everything the oracle observes must
/// be byte-identical across backends. (The two historical entries —
/// sim `wc` count padding and sim `uniq -c` column width — were real
/// sim bugs, fixed in `es-os::programs::text` to match GNU output
/// byte-for-byte.)
pub const LEDGER: &[LedgerEntry] = &[];

/// Returns the ledger entry covering a divergence, if any.
pub fn ledger_entry(scenario: &str, field: Field) -> Option<&'static LedgerEntry> {
    LEDGER
        .iter()
        .find(|e| e.scenario == scenario && e.field == field)
}

/// The conformance scenario table.
pub const SCENARIOS: &[Scenario] = &[
    // ----- words, lists, and expansion ------------------------------------
    both("echo-basic", &["echo hello world", "echo -n no newline", "echo"], &[]),
    both(
        "exit-status",
        &["true", "false", "result 0 1", "false || result 9"],
        &[],
    ),
    both(
        "and-or-chains",
        &[
            "true && echo yes",
            "false && echo nope",
            "false || echo fallback",
            "true || echo skipped",
            "true && false || echo chained",
        ],
        &[],
    ),
    both(
        "if-else",
        &["if {true} {echo then} {echo else}", "if {false} {echo then} {echo else}"],
        &[],
    ),
    both(
        "vars-lists",
        &["x = a b c", "echo $#x", "echo $x(2)", "echo $^x"],
        &[],
    ),
    both(
        "concat-distributes",
        &["v = 1 2 3", "echo p^$v", "l = a b", "r = x y", "echo $l^$r"],
        &[],
    ),
    both(
        "let-local-scoping",
        &[
            "v = outer",
            "let (v = inner) {echo $v}",
            "echo $v",
            "local (v = dyn) {echo $v}",
            "echo $v",
        ],
        &[],
    ),
    both(
        "for-loop-order",
        &["acc =", "for (i = a b c) {acc = $acc $i}", "echo $acc"],
        &[],
    ),
    both(
        "glob-match",
        &["echo g1 > ga.txt", "echo g2 > gb.txt", "echo *.txt"],
        &[],
    ),
    both("glob-nomatch", &["echo *.zzz"], &[]),
    both(
        "tilde-match",
        &["~ abc a*", "~ abc z*", "if {~ abc [a-c]*} {echo matched}"],
        &[],
    ),
    // ----- redirection -----------------------------------------------------
    both("redirect-create", &["echo alpha > f1", "cat f1"], &["cat"]),
    both(
        "redirect-append",
        &["echo one > f2", "echo two >> f2", "cat f2"],
        &["cat"],
    ),
    both("redirect-open", &["echo data > f3", "cat < f3"], &["cat"]),
    both("heredoc", &["cat << 'h1\nh2\n'"], &["cat"]),
    both(
        "block-redirect",
        &["{echo a; echo b} > f5", "cat f5"],
        &["cat"],
    ),
    both(
        "dup-to-stderr",
        &["{echo out; echo >[1=2] err} > f6", "cat f6"],
        &["cat"],
    ),
    both(
        "write-on-closed-fd",
        &["catch @ e {echo caught $e} {echo x >[1=]}"],
        &[],
    ),
    both("cat-missing-file", &["cat /no/such/file"], &["cat"]),
    both(
        "dev-null",
        &[
            "echo hi > /dev/null",
            "echo ok >> /dev/null",
            "cat /dev/null",
            "echo done",
        ],
        &["cat"],
    ),
    both(
        "unknown-command",
        &["catch @ e m {echo caught $e $m} {definitely-not-here}"],
        &[],
    ),
    // ----- pipelines -------------------------------------------------------
    both("pipe-two-stage", &["echo banana | tr a-z A-Z"], &["tr"]),
    both(
        "pipe-three-stage",
        &["seq 6 | head -n 4 | tail -n 2"],
        &["seq", "head", "tail"],
    ),
    both(
        "pipe-five-stage",
        &[
            "echo cherry > w",
            "echo apple >> w",
            "echo date >> w",
            "echo banana >> w",
            "cat w | sort | head -n 3 | tail -n 1 | tr a-z A-Z",
        ],
        &["cat", "sort", "head", "tail", "tr"],
    ),
    both(
        "pipe-status-last-stage",
        &["seq 3 | cat | cat", "cat /no/such | cat"],
        &["seq", "cat"],
    ),
    both(
        "pipe-into-file",
        &["seq 3 | tr 123 abc > f7", "cat f7"],
        &["seq", "tr", "cat"],
    ),
    both(
        "pipe-fd-designators",
        &[
            "echo hi |[1=3] cat >[0=3]",
            "{echo out; echo err >[1=2]} |[2] tr a-z A-Z",
        ],
        &["cat", "tr"],
    ),
    // ----- backquote substitution ------------------------------------------
    both("backquote-split", &["x = `{seq 3}", "echo $#x $x"], &["seq"]),
    both(
        "backquote-custom-ifs",
        &["let (ifs = :) {x = `{echo a:b:c}; echo $#x $x}"],
        &[],
    ),
    both(
        "bqstatus",
        &["x = `{false}", "echo $bqstatus", "y = `{true}", "echo $bqstatus"],
        &[],
    ),
    // ----- exceptions ------------------------------------------------------
    both(
        "throw-catch",
        &["catch @ e msg {echo caught $e $msg} {throw error boom}"],
        &[],
    ),
    both(
        "throw-custom-payload",
        &["catch @ e {echo got $e} {throw frobnicate a b c}"],
        &[],
    ),
    both("uncaught-error", &["throw error oops"], &[]),
    // ----- functions and closures ------------------------------------------
    both("fn-define-call", &["fn greet who {echo hi $who}", "greet es"], &[]),
    both(
        "closure-capture",
        &["let (c = 42) fn show {echo c is $c}", "show"],
        &[],
    ),
    both("lambda-in-var", &["f = @ x {echo got $x}", "$f one"], &[]),
    both(
        "rich-return-values",
        &["fn pair {result a b}", "echo <>{pair}"],
        &[],
    ),
    both(
        "map-library",
        &["echo <>{map @ x {result $x$x} a b c}"],
        &[],
    ),
    both(
        "apply-paper-example",
        &[
            "fn apply2 cmd args { for (i = $args) $cmd $i }",
            "apply2 @ i {echo ($i)} 1.. 2.. 3..",
        ],
        &[],
    ),
    both(
        "settor-variable",
        &[
            "fn set-watched v {echo settor saw $v; result $v}",
            "watched = hello",
            "echo $watched",
        ],
        &[],
    ),
    // ----- spoofable hooks -------------------------------------------------
    both(
        "spoof-create-noclobber",
        &[
            "let (create = $fn-%create) fn %create fd file cmd { if {test -f $file} {throw error $file exists} {$create $fd $file $cmd} }",
            "echo first > nc.txt",
            "cat nc.txt",
            "catch @ e m {echo caught $e $m} {echo second > nc.txt}",
            "cat nc.txt",
        ],
        &["test", "cat"],
    ),
    both(
        "spoof-pipe-trace",
        &[
            "let (pipe = $fn-%pipe) { fn %pipe first out in rest { echo >[1=2] stage; if {~ $#out 0} {$first} {$pipe {$first} $out $in {%pipe $rest}} } }",
            "seq 3 | cat | tr 1-3 a-c",
        ],
        &["seq", "cat", "tr"],
    ),
    // ----- fork ------------------------------------------------------------
    both("fork-basic", &["fork {echo child}", "echo parent"], &[]),
    both(
        "fork-inside-redirect",
        &["{echo one; fork {echo two}; echo three} > fk", "cat fk"],
        &["cat"],
    ),
    both(
        "fork-isolates-state",
        &["x = outer", "fork {x = inner; echo in $x}", "echo out $x"],
        &[],
    ),
    // ----- resource limits (deterministic kinds only) ----------------------
    both(
        "limit-steps",
        &["catch @ e kind {echo limited $kind} {%limit steps 500 {forever {true}}}"],
        &[],
    ),
    both(
        "limit-depth",
        &[
            // Non-tail recursion: a trailing command after the
            // self-call defeats tail-call elimination, so the stack
            // actually deepens and the depth guard fires.
            "fn rec {rec; result x}",
            "catch @ e kind {echo limited $kind} {%limit depth 40 {rec}}",
        ],
        &[],
    ),
    both(
        "limit-output",
        &["catch @ e kind {echo limited $kind} {%limit output 100 {forever {echo 0123456789}}}"],
        &[],
    ),
    // ----- eval, dot, cd ---------------------------------------------------
    both("eval-dynamic", &["cmd = echo", "eval $cmd dyn args"], &[]),
    both(
        "dot-script",
        &["echo 'echo dotted' > s.es", ". s.es"],
        &[],
    ),
    both(
        "cd-relative",
        &["echo inner > sub/i.txt", "cd sub", "echo *", "cat i.txt", "cd .."],
        &["cat"],
    ),
    // ----- simulated coreutils vs GNU --------------------------------------
    both(
        "paste-columns",
        &[
            "seq 3 > p1",
            "echo x > p2",
            "echo y >> p2",
            "paste p1 p2",
            "paste -d , p1 p2",
            "paste -s p1 p2",
        ],
        &["seq", "paste"],
    ),
    both(
        "comm-three-columns",
        &[
            "echo apple > c1",
            "echo banana >> c1",
            "echo banana > c2",
            "echo cherry >> c2",
            "comm c1 c2",
            "comm -12 c1 c2",
            "comm -3 c1 c2",
        ],
        &["comm"],
    ),
    both("tee-split", &["echo data | tee t1", "cat t1"], &["tee", "cat"]),
    both(
        "cp-mv-rm",
        &[
            "echo z > a.txt",
            "cp a.txt b.txt",
            "cat b.txt",
            "mv b.txt c.txt",
            "cat c.txt",
            "rm a.txt c.txt",
            "if {test -f a.txt} {echo still} {echo gone}",
        ],
        &["cp", "mv", "rm", "cat", "test"],
    ),
    both(
        "grep-literal",
        &["seq 12 | grep 1", "seq 3 | grep 9"],
        &["seq", "grep"],
    ),
    both("cut-fields", &["echo a:b:c | cut -d : -f 2"], &["cut"]),
    both("expr-arith", &["expr 2 + 40", "expr 5 - 5"], &["expr"]),
    both(
        "uniq-adjacent",
        &["echo a > u2", "echo a >> u2", "echo b >> u2", "cat u2 | uniq"],
        &["cat", "uniq"],
    ),
    both(
        "test-file-predicates",
        &[
            "echo hi > t.txt",
            "if {test -f t.txt} {echo yes} {echo no}",
            "if {test -f missing} {echo yes} {echo no}",
        ],
        &["test"],
    ),
    // Formerly ledgered divergences — sim wc/uniq now match GNU
    // byte-for-byte, so these are true differential scenarios.
    both("wc-count-padding", &["seq 5 | wc -l"], &["seq", "wc"]),
    both(
        "wc-count-width",
        &[
            "seq 5 > f5",
            "echo a b c > u3",
            "wc -l f5",
            "wc f5",
            "wc -l f5 u3",
            "seq 9 | wc",
        ],
        &["seq", "wc"],
    ),
    both(
        "uniq-c-padding",
        &[
            "echo a > u",
            "echo a >> u",
            "echo b >> u",
            "sort u | uniq -c",
        ],
        &["sort", "uniq"],
    ),
    // ----- simulator-only scenarios ----------------------------------------
    sim_only(
        "time-rusage",
        &["time {seq 100 | wc -l}"],
        "time reports the virtual clock and per-child rusage; RealOs wall \
         times are nondeterministic and its rusage is approximated",
    ),
    sim_only(
        "date-virtual-epoch",
        &["date"],
        "the simulator's civil clock starts at a fixed virtual epoch; the \
         real clock reports the actual date",
    ),
    sim_only(
        "sleep-virtual",
        &["sleep 5", "echo awake"],
        "simulated sleep advances the virtual clock instantly; real sleep \
         blocks for wall-clock seconds",
    ),
    sim_only(
        "signal-as-exception",
        &["catch @ e {echo sig $e} {kill -INT $pid; true}"],
        "RealOs::take_signal always returns None (no libc signal handling); \
         the simulator delivers signals through its process table",
    ),
    sim_only(
        "ps-process-table",
        &["ps"],
        "the process table is simulated; real ps shows the host's processes",
    ),
    sim_only(
        "limit-time-watchdog",
        &["catch @ e kind {echo limited $kind} {%limit time 5 {forever {true}}}"],
        "the time limit arms a virtual-clock watchdog; RealOs time advances \
         by itself and the deadline is nondeterministic",
    ),
    sim_only(
        "which-path-layout",
        &["which cat"],
        "the simulated /bin layout differs from the host PATH, so resolved \
         paths differ by construction",
    ),
    Scenario {
        name: "fault-weather",
        script: &[
            "echo alpha > fw.txt",
            "catch @ e {echo caught $e} {cat fw.txt | tr a-z A-Z | sort}",
            "catch @ e {echo caught $e} {x = `{cat fw.txt}; echo $#x}",
            "rm -f fw.txt",
        ],
        needs: &[],
        mode: Mode::SimOnly(
            "FaultPlan injection is a SimOs-only API; real kernels do not \
             take orders about when to fail",
        ),
        fault_seed: Some(42),
    },
];
