//! Front-end oracle: for a fixed corpus, the lowered tree's unparse and
//! every word's quoting segments must match `front_end.golden`, which
//! was recorded before the lexer moved from chars to bytes. A change to
//! how the front end stores words or lowers trees must leave both
//! unchanged.
//!
//! On a mismatch the test prints the whole rendered corpus; an
//! intended change of output replaces the golden file with it.

use es_syntax::print::unparse_node;
use es_syntax::{lower, parse_program, Expr, Node, Redirect};
use std::fmt::Write as _;

const GOLDEN: &str = "tests/front_end.golden";

/// The boot script, parsed as one program.
const INITIAL_ES: &str = include_str!("../../core/src/initial.es");

/// Lines covering quoting, `''`, non-ASCII text, variable-name
/// splits, closure literals, here documents and redirections.
const LINES: &[&str] = &[
    // Quoting.
    "echo 'hi there' 'don''t'",
    "echo a'b c'd",
    "echo 'a''b'c x'y'",
    "echo '' a'' ''b a''b",
    "echo ''''",
    "echo 'x'''",
    "echo 'quoted star: *' unquoted* '*'* *'*'",
    "echo 'multi\nline' tail",
    "echo a'*'b [ab]'?'c",
    "~ $x 'a*' a'*' *'.c'",
    "echo '#not a comment' # a comment",
    "x = 'a=b' c'='d",
    "echo a~b a!b a@b x'y'z~w",
    "echo '~'a '!'b '@'c",
    // Non-ASCII.
    "echo é x",
    "echo naïve 'ça va' über'ñ'",
    "echo 日本語 $日本",
    "x = ü; echo $x.é",
    "echo é'é'é",
    // Variable-name splits.
    "echo $x.c $x'>' $x'y z'",
    "echo $h, $w $a:$b",
    "echo $x')' $x''",
    "echo $fn-%pipe $path-cache $a_b $*",
    "echo $'quoted name' $'a'b",
    "echo $#x.y $^x'!'",
    "echo $$x.c",
    "echo $x(1 2).c",
    "echo $(fn-$f).x",
    // Closure literals.
    "whatis = %closure(a=b)@ * {echo $a}",
    "f = %closure(a=1 2;b='x y')@ p {echo $a $b $p}",
    "f = %closure()@ * {nop}",
    "f = %closure(c='it''s')@ {echo $c}",
    "echo '%closure'(x) %closure (x)",
    "f = %closure(a=%closure(b=c)@ * {echo $b})@ * {$a}",
    // Here documents.
    "cat << 'line1\nline2\n'",
    "cat <<[3] 'text' >[1=3]",
    "cat << bare",
    "cat << 'it''s'",
    // Redirections.
    "ls > /tmp/foo",
    "ls >> log < in >[2] err",
    "echo x >[1=2] >[3=]",
    "wc <[4] j",
    "{a; b} > f",
    "cmd > out < in",
    "a |[2=0] b | c",
    "echo x > 'a b'",
    "echo x > $out.log",
    // Everything else.
    "x=foo bar",
    "echo === banner ===",
    "fn echon args {echo -n $args}",
    "fn %create fd file cmd {x}",
    "fn gone",
    "let (h=hello; w=world) {hi = {echo $h, $w}}",
    "local (set-PATH = ) {PATH = x}",
    "for (i = a b c) $cmd $i",
    "!~ $x 0 && b || c",
    "slow &; fast",
    "echo `{pwd} `pwd <>{car <>{cdr $p}}",
    "$&if {a} {b}; fn-. = $&dot",
    "apply @ i {cd $i} /tmp",
    "f = @ x {g = @ y {h = {echo $x $y}; $h}; $g <>{@ z {result $z} $x}}",
    "echo a \\\n b",
    "echo a\r b",
    "a |\nb",
];

/// A closure capturing `n` bindings, as E9 (`e9_unparse`) defines it,
/// and its `%closure(...)` encoding as the environment carries it.
fn e9_lines(n: usize) -> [String; 2] {
    let bindings: Vec<String> = (0..n).map(|i| format!("v{i} = value-{i}")).collect();
    let encoded: Vec<String> = (0..n).map(|i| format!("v{i}=value-{i}")).collect();
    let body: Vec<String> = (0..n).map(|i| format!("$v{i}")).collect();
    [
        format!(
            "let ({}) fn subject {{ echo {} }}",
            bindings.join("; "),
            body.join(" ")
        ),
        format!(
            "fn-subject = %closure({})@ * {{echo {}}}",
            encoded.join(";"),
            body.join(" ")
        ),
    ]
}

fn corpus() -> Vec<String> {
    let mut items = vec![INITIAL_ES.to_string()];
    for n in [0, 8, 32] {
        items.extend(e9_lines(n));
    }
    items.extend(LINES.iter().map(|s| s.to_string()));
    items
}

/// Appends the segments of every word in `node`, in tree order.
fn node_words(node: &Node, out: &mut String) {
    let bindings = |bs: &[(Expr, Vec<Expr>)], out: &mut String| {
        for (name, values) in bs {
            expr_words(name, out);
            values.iter().for_each(|e| expr_words(e, out));
        }
    };
    match node {
        Node::Call(exprs) => exprs.iter().for_each(|e| expr_words(e, out)),
        Node::Assign(lhs, values) => {
            expr_words(lhs, out);
            values.iter().for_each(|e| expr_words(e, out));
        }
        Node::Let(bs, body) | Node::Local(bs, body) | Node::For(bs, body) => {
            bindings(bs, out);
            node_words(body, out);
        }
        Node::Match(subject, patterns) => {
            expr_words(subject, out);
            patterns.iter().for_each(|e| expr_words(e, out));
        }
        Node::Seq(nodes)
        | Node::SurfaceSeq(nodes)
        | Node::Pipe(nodes, _)
        | Node::AndAnd(nodes)
        | Node::OrOr(nodes) => nodes.iter().for_each(|n| node_words(n, out)),
        Node::Redir(redirects, body) => {
            for r in redirects {
                match r {
                    Redirect::Create(_, e) | Redirect::Append(_, e) | Redirect::Open(_, e) => {
                        expr_words(e, out)
                    }
                    Redirect::Dup(..) | Redirect::Close(_) | Redirect::Here(..) => {}
                }
            }
            node_words(body, out);
        }
        Node::Bang(body) | Node::Background(body) => node_words(body, out),
        Node::FnDef(name, lambda) => {
            expr_words(name, out);
            if let Some(l) = lambda {
                node_words(&l.body, out);
            }
        }
    }
}

fn expr_words(expr: &Expr, out: &mut String) {
    match expr {
        Expr::Word(w) => {
            writeln!(out, "  {:?}", w.seg_refs()).expect("write to string");
        }
        Expr::Prim(_) => {}
        Expr::Var(e) | Expr::VarCount(e) | Expr::VarFlat(e) => expr_words(e, out),
        Expr::VarSub(e, subs) => {
            expr_words(e, out);
            subs.iter().for_each(|s| expr_words(s, out));
        }
        Expr::Concat(a, b) => {
            expr_words(a, out);
            expr_words(b, out);
        }
        Expr::List(items) => items.iter().for_each(|e| expr_words(e, out)),
        Expr::Lambda(l) => node_words(&l.body, out),
        Expr::ClosureLit { bindings, lambda } => {
            for (_, values) in bindings {
                values.iter().for_each(|e| expr_words(e, out));
            }
            node_words(&lambda.body, out);
        }
        Expr::CmdSub(n) | Expr::Backquote(n) => node_words(n, out),
    }
}

/// The golden text of the whole corpus.
fn render() -> String {
    let mut out = String::new();
    for src in corpus() {
        let core = lower(parse_program(&src).unwrap_or_else(|e| panic!("{src:?}: {e:?}")));
        writeln!(out, "== {src:?}").expect("write to string");
        writeln!(out, "{:?}", unparse_node(&core)).expect("write to string");
        node_words(&core, &mut out);
    }
    out
}

#[test]
fn lowered_corpus_matches_golden() {
    let got = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let want = std::fs::read_to_string(&path).expect("golden file present");
    if got != want {
        eprint!("{got}");
    }
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {GOLDEN} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{GOLDEN} length");
}
