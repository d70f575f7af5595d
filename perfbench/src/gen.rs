//! Seeded inputs for the workloads.
//!
//! es sees only the generated text. Every op carries its expected
//! stdout, computed here in Rust from the same seeded values, without
//! running es. Sizes do not depend on the seed (op kinds come in fixed
//! proportions, list lengths and word lengths follow fixed cycles), so
//! different seeds cost about the same to run.

/// One command line and what it must print.
#[derive(Debug, Clone)]
pub struct Op {
    /// The es text, fed to the program as one line.
    pub line: String,
    /// Expected stdout, byte for byte.
    pub stdout: String,
}

impl Op {
    fn new(line: String, stdout: String) -> Op {
        Op { line, stdout }
    }

    /// True when an outcome matches this op's expectation: no error,
    /// the expected stdout, and nothing on stderr.
    pub fn accepts(&self, result: &Result<(), String>, stdout: &str, stderr: &str) -> bool {
        result.is_ok() && stdout == self.stdout && stderr.is_empty()
    }
}

/// Inputs of the workload that runs on one bare `Machine`.
pub struct BareInputs {
    /// Definitions run once after boot, before the first op.
    pub prelude: String,
    /// The op pool; the closed loop cycles through it.
    pub ops: Vec<Op>,
}

/// SplitMix64: small, seedable, and the same on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// `n` kinds in `0..kinds`, each equally often, in seeded order.
    fn kinds(&mut self, n: usize, kinds: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).map(|i| i % kinds).collect();
        self.shuffle(&mut v);
        v
    }
}

/// Words es would read as syntax at the head of a command, or that
/// the script workload uses as a sentinel.
const RESERVED: &[&str] = &["fn", "for", "let", "local", "nil"];

/// `n` distinct lowercase words; word `i` has `3 + i % 4` letters.
fn vocabulary(rng: &mut Rng, n: usize) -> Vec<String> {
    let mut vocab: Vec<String> = Vec::with_capacity(n);
    while vocab.len() < n {
        let len = 3 + vocab.len() % 4;
        let w: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        if !RESERVED.contains(&w.as_str()) && !vocab.contains(&w) {
            vocab.push(w);
        }
    }
    vocab
}

/// `n` words drawn from `vocab`.
fn sample(rng: &mut Rng, vocab: &[String], n: usize) -> Vec<String> {
    (0..n).map(|_| rng.pick(vocab).clone()).collect()
}

/// The `j`-th of a fixed cycle of sizes `lo..=hi`: a pool holds the
/// same sizes whatever the seed, only their order and words change.
fn size(j: usize, lo: usize, hi: usize) -> usize {
    lo + j % (hi - lo + 1)
}

// ---- script ------------------------------------------------------------

/// Ops in the script pool (8 kinds, 32 of each).
const SCRIPT_OPS: usize = 256;

/// The paper's closure-encoded pairs, a combinator, a settor that
/// doubles what is assigned, and a function reading a global.
const SCRIPT_PRELUDE: &str = "
fn cons a d { return @ f { $f $a $d } }
fn car p { $p @ a d { return $a } }
fn cdr p { $p @ a d { return $d } }
fn compose f g { result @ x { $f <>{$g $x} } }
set-dbl = @ { return $* $* }
fn show { echo $gx }
";

/// The `script` workload: pure interpreter work, no external command.
pub fn script(seed: u64) -> BareInputs {
    let mut rng = Rng::new(seed);
    let vocab = vocabulary(&mut rng, 40);
    let gx = rng.pick(&vocab).clone();
    let mut seen = [0; 8];
    let ops = rng
        .kinds(SCRIPT_OPS, 8)
        .into_iter()
        .map(|kind| {
            seen[kind] += 1;
            script_op(&mut rng, &vocab, &gx, kind, seen[kind])
        })
        .collect();
    BareInputs {
        prelude: format!("{SCRIPT_PRELUDE}gx = {gx}\n"),
        ops,
    }
}

/// Op `j` of kind `kind`.
fn script_op(rng: &mut Rng, vocab: &[String], gx: &str, kind: usize, j: usize) -> Op {
    match kind {
        0 => {
            // A lambda mapped over a list.
            let list = sample(rng, vocab, size(j, 16, 24));
            let suf = rng.pick(vocab);
            let want: Vec<String> = list.iter().map(|w| format!("{w}-{suf}")).collect();
            Op::new(
                format!(
                    "echo <>{{map @ x {{ result $x^-{suf} }} {}}}",
                    list.join(" ")
                ),
                want.join(" ") + "\n",
            )
        }
        1 => {
            // A predicate lambda with a pattern match.
            let list = sample(rng, vocab, size(j, 16, 24));
            let first = rng.pick(&list).chars().next().expect("words are non-empty");
            let want: Vec<&str> = list
                .iter()
                .filter(|w| w.starts_with(first))
                .map(String::as_str)
                .collect();
            Op::new(
                format!(
                    "echo <>{{filter @ x {{ ~ $x {first}* }} {}}}",
                    list.join(" ")
                ),
                want.join(" ") + "\n",
            )
        }
        2 => {
            // A cons list built by fold, walked with car/cdr.
            let list = sample(rng, vocab, size(j, 8, 12)).join(" ");
            let want: String = list.split(' ').rev().map(|w| format!("{w}\n")).collect();
            Op::new(
                format!(
                    "let (p = <>{{fold @ acc x {{ cons $x $acc }} nil {list}}}) \
                     {{ for (i = {list}) {{ echo <>{{car $p}}; p = <>{{cdr $p}} }} }}"
                ),
                want,
            )
        }
        3 => {
            // Dynamic bindings seen by a function, then undone.
            let list = sample(rng, vocab, size(j, 6, 10));
            let want: String = list.iter().map(|w| format!("{w}\n")).collect();
            Op::new(
                format!(
                    "for (i = {}) {{ local (gx = $i) {{ show }} }}; show",
                    list.join(" ")
                ),
                format!("{want}{gx}\n"),
            )
        }
        4 => {
            // An exception thrown out of a loop, or no throw at all.
            // Half the ops throw, from halfway down their list (or
            // sooner, at an earlier copy of the word), so seeds cost
            // about the same.
            let list = sample(rng, vocab, size(j, 16, 24));
            let hit = j.is_multiple_of(2);
            // Vocabulary words have no digits, so `w0` never matches.
            let target = if hit {
                list[list.len() / 2].clone()
            } else {
                "w0".to_string()
            };
            Op::new(
                format!(
                    "catch @ e v {{ echo caught $e $v }} \
                     {{ for (i = {}) {{ if {{~ $i {target}}} {{ throw found $i }} }}; echo none }}",
                    list.join(" ")
                ),
                if hit {
                    format!("caught found {target}\n")
                } else {
                    "none\n".to_string()
                },
            )
        }
        5 => {
            // A settor rewriting each assigned value.
            let list = sample(rng, vocab, size(j, 6, 10));
            let last = list.last().expect("lists are non-empty");
            Op::new(
                format!(
                    "for (i = {}) {{ dbl = $i }}; echo $#dbl $dbl",
                    list.join(" ")
                ),
                format!("2 {last} {last}\n"),
            )
        }
        6 => {
            // A closure returned by a higher-order function.
            let list = sample(rng, vocab, size(j, 16, 24));
            let (pre, suf) = (rng.pick(vocab), rng.pick(vocab));
            let want: Vec<String> = list.iter().map(|w| format!("{pre}{w}{suf}")).collect();
            Op::new(
                format!(
                    "echo <>{{map <>{{compose @ y {{result $y^{suf}}} @ y {{result {pre}^$y}}}} {}}}",
                    list.join(" ")
                ),
                want.join(" ") + "\n",
            )
        }
        _ => {
            // Lexical capture: each closure keeps its own `k`.
            let list = sample(rng, vocab, size(j, 6, 10));
            let b = rng.pick(vocab);
            let want: String = list.iter().map(|w| format!("{w}\n")).collect();
            let last = list.last().expect("lists are non-empty");
            Op::new(
                format!(
                    "for (i = {}) {{ let (k = $i) {{ fn-getk = @ {{ result $k }} }}; echo <>{{getk}} }}; \
                     let (k = {b}) {{ echo <>{{getk}} $k }}",
                    list.join(" ")
                ),
                format!("{want}{last} {b}\n"),
            )
        }
    }
}

// ---- serve ---------------------------------------------------------------

/// Sessions in the serve pool.
const SERVE_SESSIONS: usize = 128;

/// The `serve` workload: sessions of 3–5 short commands each, one of
/// five kinds (variable, echo, pipe, redirection, function call) in
/// equal shares.
pub fn serve(seed: u64) -> Vec<Vec<Op>> {
    let mut rng = Rng::new(seed);
    let vocab = vocabulary(&mut rng, 40);
    let mut lengths: Vec<usize> = (0..SERVE_SESSIONS).map(|i| size(i, 3, 5)).collect();
    rng.shuffle(&mut lengths);
    let mut kinds = rng.kinds(lengths.iter().sum(), 5).into_iter().enumerate();
    lengths
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| {
                    let (j, kind) = kinds.next().expect("one kind per command");
                    serve_op(&mut rng, &vocab, kind, size(j, 2, 4))
                })
                .collect()
        })
        .collect()
}

fn serve_op(rng: &mut Rng, vocab: &[String], kind: usize, n: usize) -> Op {
    let list = sample(rng, vocab, n);
    let (a, all) = (&list[0], list.join(" "));
    match kind {
        0 => Op::new(format!("x = {all}; echo $x(2)"), format!("{}\n", list[1])),
        1 => Op::new(format!("echo {all}"), format!("{all}\n")),
        2 => Op::new(format!("echo {all} | wc -w"), format!("{}\n", list.len())),
        3 => Op::new(format!("echo {a} > /tmp/s; cat /tmp/s"), format!("{a}\n")),
        _ => Op::new(
            format!("fn f v {{ echo $v $v }}; f {a}"),
            format!("{a} {a}\n"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(ops: &[Op]) -> Vec<&str> {
        ops.iter().map(|op| op.line.as_str()).collect()
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(lines(&script(7).ops), lines(&script(7).ops));
        assert_ne!(lines(&script(7).ops), lines(&script(8).ops));
        assert_eq!(serve(7).concat().len(), serve(8).concat().len());
    }
}
