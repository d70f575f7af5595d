//! Unit and property tests for wildcard matching.

use crate::{match_any, Pattern};
use proptest::prelude::*;

fn m(pat: &str, subj: &str) -> bool {
    Pattern::parse(pat).matches(subj)
}

#[test]
fn literal_match() {
    assert!(m("hello", "hello"));
    assert!(!m("hello", "hell"));
    assert!(!m("hello", "hellos"));
    assert!(m("", ""));
    assert!(!m("", "x"));
}

#[test]
fn question_mark() {
    assert!(m("h?llo", "hello"));
    assert!(m("h?llo", "hallo"));
    assert!(!m("h?llo", "hllo"));
    assert!(!m("?", ""));
    assert!(m("?", "x"));
}

#[test]
fn star_basics() {
    assert!(m("*", ""));
    assert!(m("*", "anything"));
    assert!(m("Ex*", "Ex12345"));
    assert!(m("Ex*", "Ex"));
    assert!(!m("Ex*", "ex12"));
    assert!(m("*.c", "main.c"));
    assert!(!m("*.c", "main.h"));
    assert!(m("a*b*c", "aXXbYYc"));
    assert!(m("a*b*c", "abc"));
    assert!(!m("a*b*c", "acb"));
}

#[test]
fn star_backtracking() {
    assert!(m("*aab", "aaaab"));
    assert!(m("*a*a*a*", "aaa"));
    assert!(!m("*a*a*a*a*", "aaa"));
    // Pathological case stays fast thanks to two-pointer matching.
    let subj = "a".repeat(2000);
    assert!(!m("*a*a*a*a*a*a*a*a*b", &subj));
}

#[test]
fn classes() {
    assert!(m("[abc]", "b"));
    assert!(!m("[abc]", "d"));
    assert!(m("[a-z]x", "qx"));
    assert!(!m("[a-z]x", "Qx"));
    assert!(m("[a-z0-9]", "5"));
    assert!(m("x[~a-z]", "x5")); // rc-style negation
    assert!(!m("x[~a-z]", "xq"));
    assert!(m("x[!a-z]", "x5")); // sh-style negation also accepted
    assert!(m("[]]", "]")); // leading ] is literal
    assert!(m("[a-]", "-")); // trailing - is literal
    assert!(m("[a-]", "a"));
    assert!(m("[z-a]", "m")); // reversed range normalised
}

#[test]
fn unterminated_class_is_literal() {
    assert!(m("a[b", "a[b"));
    assert!(!m("a[b", "ab"));
    assert!(m("[", "["));
}

#[test]
fn quoted_segments_are_literal() {
    let p = Pattern::from_segments(&[("*", true)]);
    assert!(p.matches("*"));
    assert!(!p.matches("anything"));
    assert!(!p.has_wildcards());

    let p = Pattern::from_segments(&[("foo.", true), ("*", false)]);
    assert!(p.has_wildcards());
    assert!(p.matches("foo.c"));
    assert!(p.matches("foo."));
    assert!(!p.matches("foa.c"));
}

#[test]
fn as_literal_roundtrip() {
    assert_eq!(
        Pattern::parse("plain").as_literal().as_deref(),
        Some("plain")
    );
    assert_eq!(Pattern::parse("wi*ld").as_literal(), None);
    let q = Pattern::from_segments(&[("a*b", true)]);
    assert_eq!(q.as_literal().as_deref(), Some("a*b"));
}

#[test]
fn paper_examples() {
    // `~ $e error` — exception dispatch by literal match.
    assert!(m("error", "error"));
    assert!(!m("error", "eof"));
    // `~ $file /*` — "is this an absolute path?"
    assert!(m("/*", "/bin/ls"));
    assert!(!m("/*", "bin/ls"));
    // `rm Ex*` style file matching.
    assert!(m("Ex*", "Ex.out"));
    // `~ $#head 0` — counting test.
    assert!(m("0", "0"));
    assert!(!m("0", "2"));
}

#[test]
fn match_any_works() {
    let pats = [Pattern::parse("eof"), Pattern::parse("error")];
    assert!(match_any(&pats, "error"));
    assert!(!match_any(&pats, "retry"));
    assert!(!match_any(&[], "anything"));
}

#[test]
fn unicode_subjects() {
    assert!(m("héll?", "héllo"));
    assert!(m("*é*", "café au lait"));
    assert!(m("[α-ω]", "λ"));
}

#[test]
fn star_collapsing() {
    // Multiple adjacent stars behave as one and stay linear.
    assert!(m("a****b", "ab"));
    assert!(m("a****b", "aXXXb"));
    assert!(!m("a****b", "a"));
}

// ---------------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------------

/// Reference matcher: simple exponential recursion, obviously correct.
fn ref_match(pat: &[char], subj: &[char]) -> bool {
    match pat.split_first() {
        None => subj.is_empty(),
        Some(('*', rest)) => (0..=subj.len()).any(|k| ref_match(rest, &subj[k..])),
        Some(('?', rest)) => !subj.is_empty() && ref_match(rest, &subj[1..]),
        Some((c, rest)) => subj.first() == Some(c) && ref_match(rest, &subj[1..]),
    }
}

proptest! {
    #[test]
    fn prop_agrees_with_reference(
        pat in "[abé*?]{0,10}",
        subj in "[abé]{0,14}",
    ) {
        let fast = Pattern::parse(&pat).matches(&subj);
        let p: Vec<char> = pat.chars().collect();
        let s: Vec<char> = subj.chars().collect();
        prop_assert_eq!(fast, ref_match(&p, &s), "pattern={} subject={}", pat, subj);
    }

    #[test]
    fn prop_literal_matches_itself(word in "[a-zA-Z0-9._/-]{0,20}") {
        // No metacharacters in the alphabet, so the word matches itself.
        prop_assert!(Pattern::parse(&word).matches(&word));
    }

    #[test]
    fn prop_quoted_pattern_matches_only_itself(
        word in "[a-z*?\\[\\]]{1,12}",
        other in "[a-z*?\\[\\]]{1,12}",
    ) {
        let p = Pattern::from_segments(&[(word.as_str(), true)]);
        prop_assert!(p.matches(&word));
        if other != word {
            prop_assert!(!p.matches(&other));
        }
    }

    #[test]
    fn prop_star_prefix_matches_any_suffixed(base in "[a-z]{0,8}", tail in "[a-z]{0,8}") {
        let pat = format!("{base}*");
        let subject = format!("{base}{tail}");
        prop_assert!(Pattern::parse(&pat).matches(&subject));
    }
}
