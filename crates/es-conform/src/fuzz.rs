//! The grammar-aware script fuzzer.
//!
//! [`ScriptGen`] is a `shims/proptest` [`Strategy`] that generates a
//! whole scripted session (a `Vec<String>` of commands) from a seeded
//! RNG: pipelines over the simulated coreutils, file redirections and
//! appends, backquote substitution, `catch`/`throw`, function
//! definitions, hook spoofs, `fork`, and tight `%limit` budgets.
//!
//! Two profiles:
//!
//! * [`Profile::Full`] — everything the simulator supports, including
//!   simulator-flavoured filters not exercised differentially
//!   (`tac`, `nl`). Driven against `SimOs` only, where the
//!   invariants are panic-freedom, no descriptor leaks, and
//!   byte-identical replay per seed (with FaultPlan weather on a
//!   third of the seeds).
//! * [`Profile::RealSafe`] — restricted to constructs verified
//!   byte-identical across backends (see the conformance scenarios),
//!   so every generated session must pass the differential oracle
//!   against `RealOs` with zero divergences.

use proptest::prelude::Strategy;
use proptest::Rng;

/// Which grammar subset to draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Whole simulator grammar (SimOs-only invariants).
    Full,
    /// Only constructs byte-identical across backends.
    RealSafe,
}

/// The session generator; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct ScriptGen(pub Profile);

/// Word pool: lowercase only, so locale-sensitive collation in real
/// `sort` cannot disagree with the simulator's byte order.
const WORDS: &[&str] = &[
    "alpha", "bravo", "cedar", "delta", "ember", "frond", "gleam", "haze",
];

/// Filters safe on either backend (verified byte-identical —
/// `wc`/`uniq -c` joined the pool once the sim adopted GNU's exact
/// count-column formats).
const SAFE_FILTERS: &[&str] = &[
    "tr a-z A-Z",
    "sort",
    "sort -r",
    "uniq",
    "uniq -c",
    "wc -l",
    "cat",
];

/// Extra filters for the Full profile (simulator-flavoured).
const FULL_FILTERS: &[&str] = &["tac", "nl"];

struct Gen<'a> {
    rng: &'a mut Rng,
    profile: Profile,
    /// Files the script has created so far (targets for cat/paste).
    files: Vec<String>,
    next_file: usize,
    next_var: usize,
    spoofed_create: bool,
}

impl<'a> Gen<'a> {
    fn word(&mut self) -> &'static str {
        WORDS[self.rng.below(WORDS.len() as u64) as usize]
    }

    fn fresh_file(&mut self) -> String {
        let name = format!("f{}", self.next_file);
        self.next_file += 1;
        name
    }

    fn existing_file(&mut self) -> String {
        let i = self.rng.below(self.files.len() as u64) as usize;
        self.files[i].clone()
    }

    /// A pipeline source command.
    fn source(&mut self) -> String {
        match self.rng.below(4) {
            0 => {
                let n = 1 + self.rng.below(3);
                let words: Vec<&str> = (0..n).map(|_| self.word()).collect();
                format!("echo {}", words.join(" "))
            }
            1 => format!("seq {}", 1 + self.rng.below(8)),
            2 => format!("cat {}", self.existing_file()),
            // s1/s2 are seeded by the preamble: sorted single-digit
            // sequences, so comm never sees unsorted input.
            _ => {
                if self.rng.bool() {
                    "paste s1 s2".to_string()
                } else {
                    "comm s1 s2".to_string()
                }
            }
        }
    }

    fn filter(&mut self) -> String {
        let full_extra = if self.profile == Profile::Full {
            FULL_FILTERS.len()
        } else {
            0
        };
        // head/tail take a generated count, so they are appended here
        // rather than listed in the static pools.
        let n = SAFE_FILTERS.len() + full_extra + 2;
        let i = self.rng.below(n as u64) as usize;
        if i < SAFE_FILTERS.len() {
            SAFE_FILTERS[i].to_string()
        } else if i < SAFE_FILTERS.len() + full_extra {
            FULL_FILTERS[i - SAFE_FILTERS.len()].to_string()
        } else if i == n - 2 {
            format!("head -n {}", 1 + self.rng.below(5))
        } else {
            format!("tail -n {}", 1 + self.rng.below(5))
        }
    }

    fn pipeline(&mut self) -> String {
        let mut cmd = self.source();
        for _ in 0..self.rng.below(3) {
            cmd.push_str(" | ");
            cmd.push_str(&self.filter());
        }
        cmd
    }

    /// One statement; may push several commands (e.g. a definition
    /// plus a use).
    fn statement(&mut self, out: &mut Vec<String>) {
        match self.rng.below(10) {
            // Pipeline, possibly redirected into a file.
            0..=2 => {
                let pipe = self.pipeline();
                match self.rng.below(4) {
                    0 => {
                        let f = self.fresh_file();
                        out.push(format!("{pipe} > {f}"));
                        out.push(format!("cat {f}"));
                        self.files.push(f);
                    }
                    1 => {
                        // Appends never target the seeded corpus files
                        // (s1/s2): comm requires them sorted, and GNU
                        // comm diagnoses disorder while the sim's does
                        // not.
                        let f = if self.rng.bool() && self.files.len() > 2 {
                            let i = 2 + self.rng.below((self.files.len() - 2) as u64) as usize;
                            self.files[i].clone()
                        } else {
                            let f = self.fresh_file();
                            self.files.push(f.clone());
                            f
                        };
                        out.push(format!("{pipe} >> {f}"));
                        out.push(format!("cat {f}"));
                    }
                    _ => out.push(pipe),
                }
            }
            // Backquote capture and word count.
            3 => {
                let v = format!("x{}", self.next_var);
                self.next_var += 1;
                let pipe = self.pipeline();
                out.push(format!("{v} = `{{{pipe}}}"));
                out.push(format!("echo {v} has $#{v} words: ${v}"));
                out.push("echo bq status $bqstatus".to_string());
            }
            // Short-circuit chains.
            4 => {
                let cond = match self.rng.below(3) {
                    0 => "true".to_string(),
                    1 => "false".to_string(),
                    _ => format!("cat {}", self.existing_file()),
                };
                let (a, b) = (self.word(), self.word());
                out.push(format!("{{{cond}}} && echo {a} || echo {b}"));
            }
            // Exceptions: thrown, caught, and error paths.
            5 => match self.rng.below(3) {
                0 => {
                    let w = self.word();
                    out.push(format!(
                        "catch @ e m {{echo caught $e $m}} {{throw error {w}}}"
                    ));
                }
                1 => out.push(format!("cat missing-{}", self.rng.below(100))),
                _ => {
                    let w = self.word();
                    out.push(format!("throw error {w}"));
                }
            },
            // Fork with a redirected child.
            6 => {
                let f = self.fresh_file();
                let w = self.word();
                out.push(format!("fork {{echo {w} > {f}}}"));
                out.push(format!("cat {f}"));
                self.files.push(f);
            }
            // Step budget breach under catch (deterministic on both
            // backends: steps are charged by the evaluator).
            7 => {
                let budget = 200 + self.rng.below(400);
                out.push(format!(
                    "catch @ e kind {{echo limited $kind}} {{%limit steps {budget} {{forever {{true}}}}}}"
                ));
            }
            // Function definition and call.
            8 => {
                let v = format!("g{}", self.next_var);
                self.next_var += 1;
                let w = self.word();
                out.push(format!("fn {v} x {{echo {v} got $x}}"));
                out.push(format!("{v} {w}"));
            }
            // Hook spoof: noclobber %create (at most once per script —
            // the spoof is global state).
            _ => {
                if self.spoofed_create {
                    let v = format!("v{}", self.next_var);
                    self.next_var += 1;
                    let (a, b) = (self.word(), self.word());
                    out.push(format!("{v} = {a} {b}"));
                    out.push(format!("echo ${v} / $#{v} / $^{v}"));
                } else {
                    self.spoofed_create = true;
                    let f = self.fresh_file();
                    let w = self.word();
                    out.push(
                        "let (create = $fn-%create) fn %create fd file cmd { if {test -f $file} {throw error $file exists} {$create $fd $file $cmd} }"
                            .to_string(),
                    );
                    out.push(format!("echo {w} > {f}"));
                    out.push(format!(
                        "catch @ e m {{echo caught $e $m}} {{echo again > {f}}}"
                    ));
                    out.push(format!("cat {f}"));
                    self.files.push(f);
                }
            }
        }
    }
}

impl Strategy for ScriptGen {
    type Value = Vec<String>;

    fn generate(&self, rng: &mut Rng) -> Vec<String> {
        let mut g = Gen {
            rng,
            profile: self.0,
            files: vec!["s1".to_string(), "s2".to_string()],
            next_file: 0,
            next_var: 0,
            spoofed_create: false,
        };
        // Preamble: two sorted corpus files every grammar rule may
        // reference (single-digit lines sort identically under any
        // locale, and keep comm's sortedness precondition).
        let mut out = vec!["seq 3 > s1".to_string(), "seq 5 > s2".to_string()];
        let statements = 3 + g.rng.below(5);
        for _ in 0..statements {
            g.statement(&mut out);
        }
        out
    }
}
