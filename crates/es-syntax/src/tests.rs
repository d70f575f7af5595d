//! Tests for lexing, parsing, lowering, and printing.

use crate::ast::{Expr, Node};
use crate::lex::{self, Tok};
use crate::print::{quote, unparse_expr, unparse_node};
use crate::{lower, parse_program};
use proptest::prelude::*;

/// Parse + lower + print, for compact golden tests.
fn core(src: &str) -> String {
    unparse_node(&lower(parse_program(src).expect("parses")))
}

/// Parse only (surface) + print.
fn surface(src: &str) -> String {
    unparse_node(&parse_program(src).expect("parses"))
}

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

#[test]
fn lex_simple_words() {
    let toks = lex::tokens("cd /tmp").unwrap();
    assert_eq!(toks.len(), 3); // cd, /tmp, EOF
    assert!(matches!(&toks[0].tok, Tok::Word(_)));
    assert!(toks[1].space_before);
}

#[test]
fn lex_quoting_rules() {
    let toks = lex::tokens("echo 'hi there' 'don''t'").unwrap();
    match &toks[1].tok {
        Tok::Word(w) => assert_eq!(w.seg_refs(), [("hi there", true)]),
        other => panic!("expected word, got {other:?}"),
    }
    match &toks[2].tok {
        Tok::Word(w) => assert_eq!(w.seg_refs(), [("don't", true)]),
        other => panic!("expected word, got {other:?}"),
    }
}

#[test]
fn lex_mixed_quoting_is_one_word() {
    let toks = lex::tokens("a'b c'd").unwrap();
    match &toks[0].tok {
        Tok::Word(w) => assert_eq!(w.seg_refs(), [("a", false), ("b c", true), ("d", false)]),
        other => panic!("expected word, got {other:?}"),
    }
    assert!(matches!(toks[1].tok, Tok::Eof));
}

#[test]
fn lex_unterminated_quote_is_incomplete() {
    let err = lex::tokens("echo 'oops").unwrap_err();
    assert!(err.incomplete);
}

#[test]
fn lex_operators() {
    let toks = lex::tokens("a && b || c | d & e").unwrap();
    let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
    assert!(matches!(kinds[1], Tok::AndAnd));
    assert!(matches!(kinds[3], Tok::OrOr));
    assert!(matches!(kinds[5], Tok::Pipe(1, 0)));
    assert!(matches!(kinds[7], Tok::Amp));
}

#[test]
fn lex_redirections() {
    use lex::RedirOp;
    let toks = lex::tokens("> f >> g < h >[2] i >[1=2] >[3=] <[4] j |[2=0]").unwrap();
    let redirs: Vec<&Tok> = toks
        .iter()
        .map(|t| &t.tok)
        .filter(|t| matches!(t, Tok::Redir(_) | Tok::Pipe(..)))
        .collect();
    assert!(matches!(redirs[0], Tok::Redir(RedirOp::Create(1))));
    assert!(matches!(redirs[1], Tok::Redir(RedirOp::Append(1))));
    assert!(matches!(redirs[2], Tok::Redir(RedirOp::Open(0))));
    assert!(matches!(redirs[3], Tok::Redir(RedirOp::Create(2))));
    assert!(matches!(redirs[4], Tok::Redir(RedirOp::Dup(1, 2))));
    assert!(matches!(redirs[5], Tok::Redir(RedirOp::CloseFd(3))));
    assert!(matches!(redirs[6], Tok::Redir(RedirOp::Open(4))));
    assert!(matches!(redirs[7], Tok::Pipe(2, 0)));
}

#[test]
fn lex_dollar_forms() {
    let toks = lex::tokens("$x $#y $^z $&create $$w").unwrap();
    let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
    assert!(matches!(kinds[0], Tok::Dollar));
    assert!(matches!(kinds[2], Tok::DollarCount));
    assert!(matches!(kinds[4], Tok::DollarFlat));
    assert!(matches!(kinds[6], Tok::Prim(n) if n == "create"));
    assert!(matches!(kinds[7], Tok::Dollar));
    assert!(matches!(kinds[8], Tok::Dollar));
}

#[test]
fn lex_comments_and_continuation() {
    let toks = lex::tokens("echo hi # comment\necho bye").unwrap();
    let words = toks
        .iter()
        .filter(|t| matches!(t.tok, Tok::Word(_)))
        .count();
    assert_eq!(words, 4);
    let toks = lex::tokens("echo a \\\n b").unwrap();
    assert!(!toks.iter().any(|t| matches!(t.tok, Tok::Newline)));
}

#[test]
fn lex_eq_splits_words() {
    // The paper types `x=foo bar` at the REPL.
    let toks = lex::tokens("x=foo bar").unwrap();
    assert!(matches!(toks[0].tok, Tok::Word(_)));
    assert!(matches!(toks[1].tok, Tok::Eq));
    assert!(matches!(toks[2].tok, Tok::Word(_)));
}

#[test]
fn lex_word_chars_include_shell_names() {
    for w in ["fn-%pipe", "set-PATH", "a-b_c.d", "%closure", "*", "[abc]", "path-cache"] {
        let toks = lex::tokens(w).unwrap();
        assert!(
            matches!(&toks[0].tok, Tok::Word(word) if word.is_bare() && word.text() == w),
            "{w} should lex as one word"
        );
        assert_eq!(toks.len(), 2);
    }
}

#[test]
fn lex_lone_backslash_is_a_word_char() {
    // One word each: backslash is not an escape.
    for src in ["a\\b", "\\", "a\\", "\\a", "'q'\\b"] {
        let toks = lex::tokens(src).unwrap();
        assert_eq!(toks.len(), 2, "`{src}` should lex as one word");
        match &toks[0].tok {
            Tok::Word(w) => assert_eq!(w.text().replace('\'', ""), src.replace('\'', "")),
            other => panic!("`{src}` lexed to {other:?}"),
        }
    }
    // Backslash-newline still ends a word and reads as a space.
    let toks = lex::tokens("a\\\nb").unwrap();
    let words: Vec<&str> = toks
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Word(w) => Some(w.text()),
            _ => None,
        })
        .collect();
    assert_eq!(words, ["a", "b"]);
    assert!(toks[1].space_before);
    assert_eq!(core("echo a\\b \\ c\\"), "echo a\\b \\ c\\");
}

#[test]
fn positions_are_byte_offsets() {
    // `é` is two bytes, so `x` starts at byte 3 (char 2).
    let toks = lex::tokens("é x").unwrap();
    assert_eq!(toks[1].pos, 3);
    assert_eq!(toks[2].pos, "é x".len());
    let err = parse_program("é )").unwrap_err();
    assert_eq!(
        (err.pos, err.msg.as_str()),
        (3, "expected end of input, found `)`")
    );
}

// ---------------------------------------------------------------------------
// Parser + lowering: the paper's rewrite table.
// ---------------------------------------------------------------------------

#[test]
fn redirection_rewrites_to_create() {
    // The paper's canonical example.
    assert_eq!(core("ls > /tmp/foo"), "%create 1 /tmp/foo {ls}");
    assert_eq!(core("ls >> log"), "%append 1 log {ls}");
    assert_eq!(core("wc < in"), "%open 0 in {wc}");
    assert_eq!(core("ls >[2] err"), "%create 2 err {ls}");
    assert_eq!(core("echo x >[1=2]"), "%dup 1 2 {echo x}");
    assert_eq!(core("echo x >[2=]"), "%close 2 {echo x}");
}

#[test]
fn multiple_redirections_nest_first_outermost() {
    assert_eq!(
        core("cmd > out < in"),
        "%create 1 out {%open 0 in {cmd}}"
    );
}

#[test]
fn pipe_rewrites_variadic() {
    assert_eq!(core("a | b"), "%pipe {a} 1 0 {b}");
    assert_eq!(core("a | b | c"), "%pipe {a} 1 0 {b} 1 0 {c}");
    assert_eq!(core("a |[2=0] b"), "%pipe {a} 2 0 {b}");
}

#[test]
fn figure1_pipeline_lowers() {
    let src = "cat paper9 | tr -cs a-zA-Z0-9 '\\012' | sort | uniq -c | sort -nr | sed 6q";
    let out = core(src);
    assert!(out.starts_with("%pipe {cat paper9} 1 0 {tr -cs a-zA-Z0-9 '\\012'} 1 0 {sort}"));
    assert!(out.ends_with("{sed 6q}"));
}

#[test]
fn andor_bang_background() {
    assert_eq!(core("a && b"), "%and {a} {b}");
    assert_eq!(core("a && b && c"), "%and {a} {b} {c}");
    assert_eq!(core("a || b"), "%or {a} {b}");
    assert_eq!(core("!a"), "%not {a}");
    assert_eq!(core("!~ $x 0"), "%not {~ $x 0}");
    assert_eq!(core("slow &"), "%background {slow}");
    assert_eq!(core("a && b || c"), "%or {%and {a} {b}} {c}");
}

#[test]
fn fn_rewrites_to_assignment() {
    // fn echon args {echo -n $args}  ≡  fn-echon = @ args {echo -n $args}
    assert_eq!(core("fn echon args {echo -n $args}"), "'fn-'^echon = @ args {echo -n $args}");
    assert_eq!(core("fn d {date}"), "'fn-'^d = @ * {date}");
    assert_eq!(core("fn gone"), "'fn-'^gone =");
    // Computed names (the trace example defines fn $func).
    assert_eq!(core("fn $func args {x}"), "'fn-'^$func = @ args {x}");
}

#[test]
fn seq_inside_braces_becomes_seq_call() {
    assert_eq!(core("{a; b}"), "{%seq {a} {b}}");
    // Top level stays native.
    assert_eq!(core("a; b"), "a; b");
}

#[test]
fn backquote_becomes_backquote_hook() {
    assert_eq!(core("echo `{pwd}"), "echo <>{%backquote {pwd}}");
    assert_eq!(core("title `{pwd}"), "title <>{%backquote {pwd}}");
    assert_eq!(core("echo `pwd"), "echo <>{%backquote {pwd}}");
}

#[test]
fn cmdsub_and_lambda_parse() {
    assert_eq!(core("echo <>{hello-world}"), "echo <>{hello-world}");
    assert_eq!(core("apply @ i {cd $i} /tmp"), "apply @ i {cd $i} /tmp");
    assert_eq!(core("x = {echo hi}"), "x = {echo hi}");
}

#[test]
fn assignment_forms() {
    assert_eq!(core("x = foo bar"), "x = foo bar");
    assert_eq!(core("x=foo bar"), "x = foo bar");
    assert_eq!(core("path-cache ="), "path-cache =");
    assert_eq!(core("silly-command = {echo hi}"), "silly-command = {echo hi}");
    assert_eq!(core("set-$var = @ {return $*}"), "set-^$var = @ * {return $*}");
    assert_eq!(core("(a b) = 1 2 3"), "(a b) = 1 2 3");
}

#[test]
fn match_parses() {
    assert_eq!(core("~ $e error"), "~ $e error");
    assert_eq!(core("~ $#dir 0"), "~ $#dir 0");
    assert_eq!(core("~ $file /*"), "~ $file /*");
    assert_eq!(core("~ $e eof error retry"), "~ $e eof error retry");
}

#[test]
fn binding_forms_parse() {
    assert_eq!(
        core("let (h=hello; w=world) {hi = {echo $h, $w}}"),
        "let (h = hello; w = world) {hi = {echo $h^, $w}}"
    );
    assert_eq!(
        core("local (x = baz) {echo $x}"),
        "local (x = baz) {echo $x}"
    );
    assert_eq!(
        core("for (i = $args) $cmd $i"),
        "for (i = $args) {$cmd $i}"
    );
    // let body can itself be a fn definition (the %create spoof).
    assert_eq!(
        core("let (create = $fn-%create) fn %create fd file cmd {x}"),
        "let (create = $fn-%create) {'fn-'^%create = @ fd file cmd {x}}"
    );
    // Empty binding value (the settor-recursion suppressor).
    assert_eq!(core("local (set-PATH = ) {PATH = x}"), "local (set-PATH =) {PATH = x}");
}

#[test]
fn var_forms_parse() {
    assert_eq!(core("echo $x"), "echo $x");
    assert_eq!(core("echo $#x"), "echo $#x");
    assert_eq!(core("echo $^x"), "echo $^x");
    assert_eq!(core("echo $$var"), "echo $$var");
    assert_eq!(core("echo $mixed(2) $mixed(4)"), "echo $mixed(2) $mixed(4)");
    assert_eq!(core("echo $(fn-$func)"), "echo $(fn-^$func)");
    assert_eq!(core("$&create 1 f {ls}"), "$&create 1 f {ls}");
}

#[test]
fn adjacency_concat() {
    // Var names are full words in es (so `$fn-%pipe` works); use an
    // explicit caret to concatenate: `$x^.c`.
    assert_eq!(core("echo $x^.c"), "echo $x^.c");
    assert_eq!(core("echo a^b"), "echo a^b");
    assert_eq!(core("echo fn-$i"), "echo fn-^$i");
    assert_eq!(core("echo $a$b"), "echo $a^$b");
    // With space: two arguments.
    assert_eq!(core("echo $x .c"), "echo $x .c");
}

#[test]
fn closure_lit_roundtrip() {
    let src = "whatis = %closure(a=b)@ * {echo $a}";
    assert_eq!(core(src), "whatis = %closure(a=b)@ * {echo $a}");
    let multi = "f = %closure(a=1 2;b='x y')@ p {echo $a $b $p}";
    assert_eq!(core(multi), "f = %closure(a=1 2;b='x y')@ p {echo $a $b $p}");
    let empty = "f = %closure()@ * {nop}";
    assert_eq!(core(empty), "f = %closure()@ * {nop}");
}

#[test]
fn incomplete_inputs_are_flagged() {
    for src in ["echo {", "fn f {", "let (x = 1) {", "echo 'open", "a | ", "if {true} {"] {
        let err = parse_program(src).unwrap_err();
        assert!(err.incomplete, "`{src}` should be incomplete: {err:?}");
    }
    // Errors that more input cannot fix.
    let err = parse_program("echo )").unwrap_err();
    assert!(!err.incomplete);
}

#[test]
fn empty_braces_and_programs() {
    assert_eq!(core(""), "");
    assert_eq!(core("\n\n ; ;\n"), "");
    assert_eq!(core("while {} {x}"), "while {} {x}");
}

#[test]
fn trace_function_parses() {
    // The full trace example from the paper.
    let src = r#"
fn trace functions {
    for (func = $functions)
        let (old = $(fn-$func))
            fn $func args {
                echo calling $func $args
                $old $args
            }
}
"#;
    let out = core(src);
    assert!(out.starts_with("'fn-'^trace = @ functions {for (func = $functions)"));
    assert!(out.contains("let (old = $(fn-^$func))"));
    assert!(out.contains("%seq {echo calling $func $args} {$old $args}"));
}

#[test]
fn figure3_interactive_loop_parses() {
    let src = r#"
fn %interactive-loop {
    let (result = 0) {
        catch @ e msg {
            if {~ $e eof} {
                return $result
            } {~ $e error} {
                echo >[1=2] $msg
            } {
                echo >[1=2] uncaught exception: $e $msg
            }
            throw retry
        } {
            while {} {
                %prompt
                let (cmd = <>{%parse $prompt}) {
                    result = <>{$cmd}
                }
            }
        }
    }
}
"#;
    let out = core(src);
    assert!(out.contains("catch @ e msg"));
    assert!(out.contains("%dup 1 2 {echo $msg}"));
    assert!(out.contains("<>{%parse $prompt}"));
}

#[test]
fn pathsearch_figure2_parses() {
    let src = r#"
let (search = $fn-%pathsearch) {
    fn %pathsearch prog {
        let (file = <>{$search $prog}) {
            if {~ $#file 1 && ~ $file /*} {
                path-cache = $path-cache $prog
                fn-$prog = $file
            }
            return $file
        }
    }
}
"#;
    let out = core(src);
    assert!(out.contains("let (search = $fn-%pathsearch)"));
    assert!(out.contains("%and {~ $#file 1} {~ $file /*}"));
    assert!(out.contains("fn-^$prog = $file"));
}

#[test]
fn here_doc_simplified() {
    assert_eq!(core("cat << 'line1\nline2\n'"), "%here 0 'line1\nline2\n' {cat}");
}

#[test]
fn surface_printing_stays_surface() {
    assert_eq!(surface("a | b"), "a | b");
    assert_eq!(surface("a && b"), "a && b");
    assert_eq!(surface("ls > f"), "ls > f");
    assert_eq!(surface("fn f x {y}"), "fn f @ x {y}");
}

// ---------------------------------------------------------------------------
// Round-trip properties.
// ---------------------------------------------------------------------------

#[test]
fn core_print_reparses_fixed_corpus() {
    let corpus = [
        "ls > /tmp/foo",
        "a | b | c",
        "a && b || c",
        "fn apply cmd args {for (i = $args) $cmd $i}",
        "echo <>{car <>{cdr <>{cons 1 nil}}}",
        "let (x = 1; y = 2 3) {echo $x $y}",
        "~ $e error",
        "x = %closure(a=b)@ * {echo $a}",
        "catch @ e msg {echo $e} {throw error bad}",
        "echo 'quoted star: *' unquoted*",
        "%pipe {a} 1 0 {b}",
        "echo $list(2) $#list $^list",
    ];
    for src in corpus {
        let once = core(src);
        let twice = core(&once);
        assert_eq!(once, twice, "print→parse→print not stable for `{src}`");
    }
}

#[test]
fn quote_keeps_carriage_returns() {
    // A leading `\r` lexes as space, so `quote` must quote it.
    for s in ["\r", "\ra", "a\r", "a\rb"] {
        let toks = lex::tokens(&quote(s)).unwrap();
        assert!(matches!(&toks[..], [t, _] if matches!(&t.tok, Tok::Word(w) if w.text() == s)));
    }
}

proptest! {
    #[test]
    fn prop_quote_roundtrips_any_string(s in "[ -~\\t\\n\\ré]{0,40}") {
        // quote() must produce a single word that lexes back to `s`.
        let quoted = quote(&s);
        let toks = lex::tokens(&quoted).unwrap();
        match &toks[0].tok {
            Tok::Word(w) => prop_assert_eq!(w.text(), s),
            other => prop_assert!(false, "quoted `{}` lexed to {:?}", s, other),
        }
        prop_assert_eq!(toks.len(), 2, "exactly one word + EOF");
    }

    #[test]
    fn prop_tokens_advance_by_char_boundaries(
        s in "[ \\t\\n\\r#;&|^$=`'{}()<>!@~\\\\a-zA-Z0-9é]{0,40}"
    ) {
        // Every input lexes (or fails) in finite time, and each token
        // starts on a char boundary past the one before. (`quote`'s
        // round trip over these chars is `prop_quote_roundtrips_any_string`.)
        if let Ok(toks) = lex::tokens(&s) {
            let (last, toks) = toks.split_last().expect("at least Eof");
            prop_assert!(matches!(last.tok, Tok::Eof));
            prop_assert_eq!(last.pos, s.len());
            let mut prev = None;
            for t in toks {
                prop_assert!(s.is_char_boundary(t.pos), "token at {} in {:?}", t.pos, s);
                prop_assert!(prev.is_none_or(|p| t.pos > p), "{} after {:?}", t.pos, prev);
                prev = Some(t.pos);
            }
        }
    }

    #[test]
    fn prop_simple_commands_roundtrip(
        words in proptest::collection::vec("[a-z0-9/.-]{1,8}", 1..6)
    ) {
        let src = words.join(" ");
        let once = core(&src);
        prop_assert_eq!(&once, &src);
        let twice = core(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn prop_unparse_expr_of_quoted_word_reparses(s in "[ -~]{0,16}") {
        let w = crate::ast::Word::quoted(&s);
        let printed = unparse_expr(&Expr::Word(w));
        let prog = parse_program(&format!("echo {printed}")).unwrap();
        match lower(prog) {
            Node::Call(exprs) => match &exprs[1] {
                Expr::Word(w) => prop_assert_eq!(w.text(), s),
                other => prop_assert!(false, "unexpected expr {:?}", other),
            },
            other => prop_assert!(false, "unexpected node {:?}", other),
        }
    }
}

// ---------------------------------------------------------------------------
// Additional edge cases.
// ---------------------------------------------------------------------------

#[test]
fn equals_runs_are_words() {
    // Banner lines in scripts: `===` must not be three assignments.
    assert_eq!(core("echo === banner ==="), "echo === banner ===");
    assert_eq!(core("x == y"), "x == y");
    assert_eq!(core("x = y"), "x = y");
}

#[test]
fn var_names_stop_at_punctuation() {
    assert_eq!(core("echo $h, $w"), "echo $h^, $w");
    assert_eq!(core("echo $a:$b"), "echo $a^:^$b");
    assert_eq!(core("echo $x')'"), "echo $x^')'");
    // Quoted-adjacent segment splits too.
    assert_eq!(core("echo $x'y z'"), "echo $x^'y z'");
    // Name characters the shell itself relies on stay in.
    assert_eq!(core("echo $fn-%pipe $path-cache $a_b"), "echo $fn-%pipe $path-cache $a_b");
}

#[test]
fn pipes_allow_newline_after_bar() {
    assert_eq!(core("a |\nb"), "%pipe {a} 1 0 {b}");
    assert_eq!(core("a &&\nb"), "%and {a} {b}");
}

#[test]
fn nested_braces_and_parens() {
    assert_eq!(core("{ { a } }"), "{{a}}");
    assert_eq!(core("echo ((a b) c)"), "echo ((a b) c)");
    assert_eq!(core("x = ()"), "x = ()"); // () evaluates to the empty list
}

#[test]
fn bang_binds_to_the_following_command() {
    // `!` negates the immediately following command (tighter than |).
    assert_eq!(core("!a | b"), "%pipe {%not {a}} 1 0 {b}");
    assert_eq!(core("! a && b"), "%and {%not {a}} {b}");
    assert_eq!(core("!{a | b}"), "%not {{%pipe {a} 1 0 {b}}}");
}

#[test]
fn comments_do_not_eat_newlines() {
    assert_eq!(core("a # x\nb"), "a; b");
}

#[test]
fn fn_with_percent_names() {
    assert_eq!(
        core("fn %create fd file cmd {x}"),
        "'fn-'^%create = @ fd file cmd {x}"
    );
    assert_eq!(core("fn %interactive-loop {x}"), "'fn-'^%interactive-loop = @ * {x}");
}

#[test]
fn redirections_on_compound_commands() {
    assert_eq!(core("{a; b} > f"), "%create 1 f {{%seq {a} {b}}}");
    assert_eq!(core("for (i = 1) echo $i > f"), "for (i = 1) {%create 1 f {echo $i}}");
}

#[test]
fn empty_assignment_values_allowed_before_terminators() {
    assert_eq!(core("x =; y = 1"), "x =; y = 1");
    assert_eq!(core("x =\ny = 1"), "x =; y = 1");
    assert_eq!(core("{x =}"), "{x =}");
}

#[test]
fn prim_tokens_with_special_names() {
    assert_eq!(core("$&if {a} {b}"), "$&if {a} {b}");
    assert_eq!(core("fn-. = $&dot"), "fn-. = $&dot");
}

#[test]
fn deeply_nested_cmdsub() {
    let src = "echo <>{car <>{cdr <>{cons 1 <>{cons 2 nil}}}}";
    assert_eq!(core(src), src);
}

#[test]
fn match_with_parenthesised_subject() {
    assert_eq!(core("~ (a b c) b"), "~ (a b c) b");
    assert_eq!(core("~ () ()"), "~ () ()");
}

#[test]
fn background_inside_sequence() {
    assert_eq!(core("{slow &; fast}"), "{%seq {%background {slow}} {fast}}");
}

// ---------------------------------------------------------------------------
// The parser moves tokens out as it consumes them: errors, lookahead and
// nested bodies must read the same as when every token stayed in place.
// ---------------------------------------------------------------------------

/// `(pos, incomplete, msg)` of the parse error for `src`.
fn parse_error(src: &str) -> (usize, bool, String) {
    let err = parse_program(src).unwrap_err();
    (err.pos, err.incomplete, err.msg)
}

#[test]
fn parse_error_positions_at_first_middle_and_last_token() {
    assert_eq!(parse_error(") echo"), (0, false, "unexpected `)`".to_string()));
    assert_eq!(
        parse_error("x = a = b"),
        (6, false, "unexpected `=` in assignment values".to_string())
    );
    assert_eq!(
        parse_error("echo a ) b"),
        (7, false, "expected end of input, found `)`".to_string())
    );
    assert_eq!(
        parse_error("echo a >"),
        (8, true, "expected file name after redirection".to_string())
    );
    assert_eq!(parse_error("echo a |"), (8, true, "unexpected end of input".to_string()));
}

#[test]
fn closure_literal_needs_an_unquoted_word_touching_its_paren() {
    let call = |src: &str| match parse_program(src).expect("parses") {
        Node::Call(words) => words,
        other => panic!("`{src}` is not a call: {other:?}"),
    };
    // Literal: the word and `(` touch, and nothing is quoted.
    let lit = call("echo %closure(a=b)@ * {echo $a}");
    assert!(matches!(&lit[1], Expr::ClosureLit { bindings, .. } if bindings.len() == 1));
    // Quoted: a word concatenated with a list.
    let quoted = call("echo '%closure'(x)");
    assert_eq!(quoted.len(), 2);
    assert!(matches!(&quoted[1], Expr::Concat(a, b)
        if matches!(&**a, Expr::Word(w) if w.text() == "%closure")
            && matches!(&**b, Expr::List(_))));
    // With a space: two separate arguments.
    let spaced = call("echo %closure (x)");
    assert_eq!(spaced.len(), 3);
    assert!(matches!(&spaced[1], Expr::Word(w) if w.text() == "%closure"));
    assert!(matches!(&spaced[2], Expr::List(_)));
}

#[test]
fn nested_lambdas_round_trip_through_print() {
    let src = "f = @ x {g = @ y {h = {echo $x $y}; $h}; $g <>{@ z {result $z} $x}}";
    let printed = core(src);
    assert_eq!(
        printed,
        "f = @ x {%seq {g = @ y {%seq {h = {echo $x $y}} {$h}}} {$g <>{@ z {result $z} $x}}}"
    );
    assert_eq!(core(&printed), printed);
}
