//! Unit tests of the analyzer itself — lexer edge cases (strings,
//! lifetimes, nested comments, test masking) and per-rule checks over
//! inline sources, without touching the filesystem.

use adp_lint::lexer;
use adp_lint::rules::{check_file, RuleId, ALL_RULES};

fn lint_all(src: &str) -> Vec<String> {
    let lexed = lexer::lex(src);
    check_file("src/x.rs", &lexed, &ALL_RULES)
        .into_iter()
        .map(|v| format!("{}:{}", v.rule.slug(), v.line))
        .collect()
}

#[test]
fn comment_markers_inside_strings_are_not_comments() {
    let v = lint_all(
        r##"
pub fn f() -> String {
    let a = "// not a comment: x.unwrap()";
    let b = r#"/* also not "a comment" */"#;
    format!("{a}{b}")
}
"##,
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn panic_calls_inside_strings_are_not_flagged() {
    let v = lint_all("pub fn f() -> &'static str {\n    \"call .unwrap() and panic!\"\n}\n");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn lifetimes_are_not_char_literals() {
    // A naive char-literal scanner would swallow `'a>(x: &` and corrupt
    // everything after; the unwrap below must still be found.
    let v = lint_all("pub fn f<'a>(x: &'a Option<u32>) -> u32 {\n    x.unwrap()\n}\n");
    assert_eq!(v, ["panic-path:2"]);
}

#[test]
fn nested_block_comments_close_correctly() {
    let v = lint_all("/* outer /* inner */ still comment */\npub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n");
    assert_eq!(v, ["panic-path:3"]);
}

#[test]
fn test_items_are_masked() {
    let src = "
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
pub fn live(v: Option<u32>) -> u32 {
    v.expect(\"boom\")
}
";
    let v = lint_all(src);
    assert_eq!(v, ["panic-path:10"], "only the non-test expect fires");
}

#[test]
fn safety_comment_suppresses_missing_safety() {
    let ok = lint_all(
        "pub fn f(p: *const u32) -> u32 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}\n",
    );
    assert!(ok.is_empty(), "{ok:?}");
    let bad = lint_all("pub fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n");
    assert_eq!(bad, ["missing-safety:2"]);
}

#[test]
fn widening_casts_are_not_truncating() {
    let v = lint_all("pub fn f(x: u32, n: usize) -> (u64, usize, u32) {\n    (x as u64, x as usize, n as u32)\n}\n");
    assert_eq!(v, ["truncating-cast:2"], "only usize → u32 fires");
}

#[test]
fn vec_iteration_is_not_hash_iteration() {
    let v = lint_all(
        "use std::collections::HashMap;\npub fn f(v: &Vec<u32>, m: &HashMap<u32, u32>) -> usize {\n    let a = v.iter().count();\n    a + m.keys().count()\n}\n",
    );
    assert_eq!(v, ["unordered-iter:4"], "the Vec iter stays silent");
}

#[test]
fn rule_scopes_route_by_path() {
    assert!(RuleId::PanicPath.applies_to("crates/engine/src/plan.rs"));
    assert!(RuleId::PanicPath.applies_to("crates/service/src/lib.rs"));
    // The network front door is held to the library crates' rules.
    for rule in [
        RuleId::PanicPath,
        RuleId::TruncatingCast,
        RuleId::UnorderedIter,
    ] {
        assert!(rule.applies_to("crates/server/src/server.rs"), "{rule:?}");
    }
    assert!(
        !RuleId::PanicPath.applies_to("crates/bench/src/lib.rs"),
        "the bench harness may panic freely"
    );
    assert!(RuleId::WallClock.applies_to("crates/core/src/solver/greedy.rs"));
    assert!(
        !RuleId::WallClock.applies_to("crates/service/src/lib.rs"),
        "the service layer measures wall-clock by design"
    );
    // missing-safety has an empty scope: every workspace file.
    assert!(RuleId::MissingSafety.applies_to("crates/bench/src/lib.rs"));
}
