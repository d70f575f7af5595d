//! AST → VM instruction program.

use crate::parse::Ast;

/// One VM instruction. Program counters are indices into the program
/// vector; `Split` tries `a` first (greedy preference) and falls back
/// to `b` on backtrack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// Match one specific character.
    Char(char),
    /// Match any one character.
    Any,
    /// Match one character in (or out of) the class.
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    /// Unconditional jump.
    Jmp(usize),
    /// Nondeterministic branch: prefer `a`, backtrack to `b`.
    Split(usize, usize),
    /// Record the current position in capture slot `n`.
    Save(usize),
    /// Assert beginning of subject.
    Bol,
    /// Assert end of subject.
    Eol,
    /// Accept.
    Match,
}

/// Compiles an AST into a program ending in `Match`, wrapped in
/// `Save(0) .. Save(1)` so group 0 is the whole match.
pub(crate) fn compile(ast: &Ast) -> Vec<Inst> {
    let mut prog = Vec::new();
    prog.push(Inst::Save(0));
    emit(ast, &mut prog);
    prog.push(Inst::Save(1));
    prog.push(Inst::Match);
    prog
}

fn emit(ast: &Ast, prog: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Char(c) => prog.push(Inst::Char(*c)),
        Ast::Dot => prog.push(Inst::Any),
        Ast::Class { negated, ranges } => prog.push(Inst::Class {
            negated: *negated,
            ranges: ranges.clone(),
        }),
        Ast::Bol => prog.push(Inst::Bol),
        Ast::Eol => prog.push(Inst::Eol),
        Ast::Concat(items) => {
            for item in items {
                emit(item, prog);
            }
        }
        Ast::Alt(alts) => {
            // split L1, L2 ; L1: a ; jmp END ; L2: split ... chain.
            let mut jumps_to_end = Vec::new();
            for (i, alt) in alts.iter().enumerate() {
                if i + 1 < alts.len() {
                    let split_at = prog.len();
                    prog.push(Inst::Split(0, 0)); // patched below
                    emit(alt, prog);
                    jumps_to_end.push(prog.len());
                    prog.push(Inst::Jmp(0)); // patched below
                    let here = prog.len();
                    if let Inst::Split(a, b) = &mut prog[split_at] {
                        *a = split_at + 1;
                        *b = here;
                    }
                } else {
                    emit(alt, prog);
                }
            }
            let end = prog.len();
            for j in jumps_to_end {
                if let Inst::Jmp(t) = &mut prog[j] {
                    *t = end;
                }
            }
        }
        Ast::Star(inner) => {
            // L1: split L2, L3 ; L2: inner ; jmp L1 ; L3:
            let l1 = prog.len();
            prog.push(Inst::Split(0, 0));
            emit(inner, prog);
            prog.push(Inst::Jmp(l1));
            let l3 = prog.len();
            if let Inst::Split(a, b) = &mut prog[l1] {
                *a = l1 + 1;
                *b = l3;
            }
        }
        Ast::Plus(inner) => {
            // L1: inner ; split L1, L2 ; L2:
            let l1 = prog.len();
            emit(inner, prog);
            let split_at = prog.len();
            prog.push(Inst::Split(l1, split_at + 1));
        }
        Ast::Opt(inner) => {
            // split L1, L2 ; L1: inner ; L2:
            let split_at = prog.len();
            prog.push(Inst::Split(0, 0));
            emit(inner, prog);
            let l2 = prog.len();
            if let Inst::Split(a, b) = &mut prog[split_at] {
                *a = split_at + 1;
                *b = l2;
            }
        }
        Ast::Group(g, inner) => {
            prog.push(Inst::Save(2 * g));
            emit(inner, prog);
            prog.push(Inst::Save(2 * g + 1));
        }
    }
}
