//! The adp-lint rule set.
//!
//! Each rule encodes an invariant the workspace's headline guarantee
//! (parallel execution byte-identical to sequential, a service layer
//! that never crashes) rests on, and each traces back to a real past
//! bug class — see the repository README's "Static analysis" section
//! for the rule table and EXPERIMENTS.md for the history.
//!
//! Rules are lexical: they see the token stream of [`crate::lexer`],
//! never types. Where that is too coarse the escape hatch is an
//! explicit annotation with a written reason:
//!
//! ```text
//! // adp-lint: allow(unordered-iter) -- feeds a BTreeSet; order-insensitive
//! ```
//!
//! placed on the offending line or the line directly above it.

use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// Stable rule identifiers. The slug (see [`RuleId::slug`]) is what
/// appears in diagnostics, `allow(..)` annotations, and the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// R1: no `HashMap`/`HashSet` iteration in determinism-critical
    /// crates.
    UnorderedIter,
    /// R2: no truncating `as` casts (`as u8`/`u16`/`u32`).
    TruncatingCast,
    /// R3: no `unwrap`/`expect`/`panic!`/`unreachable!` in library
    /// crates the service layer promises never crash.
    PanicPath,
    /// R4: every `unsafe` block/impl/fn carries a `// SAFETY:` comment.
    MissingSafety,
    /// R5: no wall-clock reads inside solver decision paths.
    WallClock,
}

/// All rules, in diagnostic order.
pub const ALL_RULES: [RuleId; 5] = [
    RuleId::UnorderedIter,
    RuleId::TruncatingCast,
    RuleId::PanicPath,
    RuleId::MissingSafety,
    RuleId::WallClock,
];

impl RuleId {
    /// The slug used in diagnostics, annotations, and the baseline.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::UnorderedIter => "unordered-iter",
            RuleId::TruncatingCast => "truncating-cast",
            RuleId::PanicPath => "panic-path",
            RuleId::MissingSafety => "missing-safety",
            RuleId::WallClock => "wall-clock",
        }
    }

    /// Parses a slug back into a rule id.
    pub fn from_slug(s: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.slug() == s)
    }

    /// One-line description shown by `--list-rules`.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::UnorderedIter => {
                "no HashMap/HashSet iteration in determinism-critical crates \
                 (solver answers must not depend on hash order)"
            }
            RuleId::TruncatingCast => {
                "no truncating `as u8`/`as u16`/`as u32` casts; use try_into() \
                 with a typed error, or annotate the invariant"
            }
            RuleId::PanicPath => {
                "no unwrap()/expect()/panic!/unreachable! in library crates \
                 the service layer promises never crash"
            }
            RuleId::MissingSafety => {
                "every `unsafe` block, fn, or impl must have a `// SAFETY:` \
                 comment on the preceding line"
            }
            RuleId::WallClock => {
                "no Instant::now()/SystemTime::now() inside solver decision \
                 paths outside deadline plumbing"
            }
        }
    }

    /// Path prefixes (relative to the workspace root, `/`-separated)
    /// the rule applies to. Empty means every walked file.
    pub fn scope(self) -> &'static [&'static str] {
        match self {
            RuleId::UnorderedIter => &[
                "crates/engine/src/",
                "crates/core/src/",
                "crates/flow/src/",
                "crates/server/src/",
            ],
            RuleId::TruncatingCast => &[
                "crates/engine/src/",
                "crates/core/src/",
                "crates/flow/src/",
                "crates/service/src/",
                "crates/runtime/src/",
                "crates/server/src/",
            ],
            RuleId::PanicPath => &[
                "crates/engine/src/",
                "crates/core/src/",
                "crates/flow/src/",
                "crates/service/src/",
                "crates/server/src/",
            ],
            RuleId::MissingSafety => &[],
            RuleId::WallClock => &["crates/core/src/solver/", "crates/engine/src/delta.rs"],
        }
    }

    /// True if the rule applies to `rel_path` (workspace-relative,
    /// `/`-separated).
    pub fn applies_to(self, rel_path: &str) -> bool {
        let scope = self.scope();
        scope.is_empty() || scope.iter().any(|p| rel_path.starts_with(p))
    }
}

/// One diagnostic: a rule firing at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative, `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// Renders as `file:line: rule: message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.slug(),
            self.message
        )
    }
}

/// A parsed `// adp-lint: allow(<rule>) -- <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Last line of the comment carrying the annotation; it suppresses
    /// matching violations on this line and the next.
    pub line: u32,
    /// The rule being allowed, if the slug parsed.
    pub rule: Option<RuleId>,
    /// The slug as written (for error messages on bad slugs).
    pub slug: String,
    /// The written justification after `--`, if any.
    pub reason: Option<String>,
}

/// Extracts every adp-lint annotation from the file's comments.
pub fn parse_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        // Doc comments (`///` → text starts with `/`, `//!` → `!`,
        // `/** .. */` → `*`) are documentation, not annotations; this
        // lets docs show annotation examples without tripping the
        // bad-allow check.
        if matches!(c.text.chars().next(), Some('/' | '!' | '*')) {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("adp-lint:") {
            rest = &rest[pos + "adp-lint:".len()..];
            let trimmed = rest.trim_start();
            let Some(args) = trimmed.strip_prefix("allow(") else {
                continue;
            };
            let Some(close) = args.find(')') else {
                continue;
            };
            let slug = args[..close].trim().to_string();
            let after = &args[close + 1..];
            // Reason: everything after a `--` separator, up to EOL.
            let reason = after.find("--").map(|p| {
                after[p + 2..]
                    .lines()
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string()
            });
            out.push(Allow {
                line: c.last_line,
                rule: RuleId::from_slug(&slug),
                slug,
                reason: reason.filter(|r| !r.is_empty()),
            });
            rest = after;
        }
    }
    out
}

/// Runs every rule in `rules` against one lexed file.
pub fn check_file(rel_path: &str, lexed: &Lexed, rules: &[RuleId]) -> Vec<Violation> {
    let mut out = Vec::new();
    for &rule in rules {
        let vs = match rule {
            RuleId::UnorderedIter => check_unordered_iter(rel_path, lexed),
            RuleId::TruncatingCast => check_truncating_cast(rel_path, lexed),
            RuleId::PanicPath => check_panic_path(rel_path, lexed),
            RuleId::MissingSafety => check_missing_safety(rel_path, lexed),
            RuleId::WallClock => check_wall_clock(rel_path, lexed),
        };
        out.extend(vs);
    }
    out.sort();
    out
}

fn ident(t: &Tok) -> Option<&str> {
    match &t.kind {
        TokKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(t: &Tok, c: char) -> bool {
    t.kind == TokKind::Punct(c)
}

/// R3: panicking calls in library code.
fn check_panic_path(rel_path: &str, lexed: &Lexed) -> Vec<Violation> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Some(name) = ident(&toks[i]) else {
            continue;
        };
        match name {
            "unwrap" | "expect" | "unwrap_unchecked" => {
                let after_dot = i > 0 && punct(&toks[i - 1], '.');
                let called = toks.get(i + 1).is_some_and(|t| punct(t, '('));
                if after_dot && called {
                    out.push(Violation {
                        file: rel_path.to_string(),
                        line: toks[i].line,
                        rule: RuleId::PanicPath,
                        message: format!(
                            ".{name}() can panic; return a typed error or annotate \
                             `adp-lint: allow(panic-path) -- <reason>`"
                        ),
                    });
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                let is_macro = toks.get(i + 1).is_some_and(|t| punct(t, '!'));
                // `std::panic::catch_unwind` has `panic` followed by
                // `::` — not a macro invocation.
                if is_macro {
                    out.push(Violation {
                        file: rel_path.to_string(),
                        line: toks[i].line,
                        rule: RuleId::PanicPath,
                        message: format!(
                            "{name}! aborts the solve; return a typed error or annotate \
                             `adp-lint: allow(panic-path) -- <reason>`"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// R2: truncating numeric casts.
fn check_truncating_cast(rel_path: &str, lexed: &Lexed) -> Vec<Violation> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if ident(&toks[i]) != Some("as") {
            continue;
        }
        let Some(target) = ident(&toks[i + 1]) else {
            continue;
        };
        if !matches!(target, "u8" | "u16" | "u32") {
            continue;
        }
        // `as` must follow an expression, not appear in `use x as y`.
        // Heuristic: `use`-renames have an identifier before `as` and
        // `;`/`,`/`}` soon after, but the target here is a primitive
        // type name, which cannot be a rename target in this codebase.
        out.push(Violation {
            file: rel_path.to_string(),
            line: toks[i].line,
            rule: RuleId::TruncatingCast,
            message: format!(
                "`as {target}` silently truncates; use try_into() with a typed \
                 error, or annotate `adp-lint: allow(truncating-cast) -- <invariant>`"
            ),
        });
    }
    out
}

/// R4: `unsafe` without an adjacent `SAFETY:` comment.
fn check_missing_safety(rel_path: &str, lexed: &Lexed) -> Vec<Violation> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ident(&toks[i]) != Some("unsafe") {
            continue;
        }
        let line = toks[i].line;
        if lexed.adjacent_comment_contains(line, "SAFETY:") {
            continue;
        }
        let form = match toks.get(i + 1).and_then(ident) {
            Some("impl") => "unsafe impl",
            Some("fn") => "unsafe fn",
            _ => "unsafe block",
        };
        out.push(Violation {
            file: rel_path.to_string(),
            line,
            rule: RuleId::MissingSafety,
            message: format!(
                "{form} without a `// SAFETY:` comment on the preceding line \
                 stating why the invariants hold"
            ),
        });
    }
    out
}

/// R5: wall-clock reads in solver decision paths.
fn check_wall_clock(rel_path: &str, lexed: &Lexed) -> Vec<Violation> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(3) {
        let Some(name) = ident(&toks[i]) else {
            continue;
        };
        if !matches!(name, "Instant" | "SystemTime") {
            continue;
        }
        if punct(&toks[i + 1], ':')
            && punct(&toks[i + 2], ':')
            && ident(&toks[i + 3]) == Some("now")
        {
            out.push(Violation {
                file: rel_path.to_string(),
                line: toks[i].line,
                rule: RuleId::WallClock,
                message: format!(
                    "{name}::now() in a solver decision path makes answers \
                     time-dependent; keep wall-clock reads in deadline plumbing \
                     and annotate `adp-lint: allow(wall-clock) -- <reason>`"
                ),
            });
        }
    }
    out
}

/// Iteration methods whose order reflects hash order.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// R1: hash-order iteration in determinism-critical crates.
///
/// Two-pass lexical type tracking:
///
/// 1. Collect identifiers bound with a `HashMap`/`HashSet` type
///    (`let x: HashMap<..>`, fields, fn params, `= HashMap::new()`),
///    and identifiers bound to containers *of* hash maps
///    (`Vec<HashMap<..>>`, `&[HashMap<..>]`) whose elements are
///    reached by indexing.
/// 2. Flag `x.iter()`-style calls on hash-typed identifiers,
///    `v[i].iter()` on hash-container identifiers, `for .. in &x`,
///    and rebind loop variables of `for m in hash_container` so the
///    body's `m.iter()` is caught too.
fn check_unordered_iter(rel_path: &str, lexed: &Lexed) -> Vec<Violation> {
    let toks = &lexed.toks;
    let n = toks.len();

    // ---- pass 1: collect hash-typed (H) and hash-container (VH) idents.
    let mut hash_idents: BTreeSet<String> = BTreeSet::new();
    let mut container_idents: BTreeSet<String> = BTreeSet::new();

    let is_hash_name = |s: &str| s == "HashMap" || s == "HashSet";

    // `NAME : <type tokens>` — classify by outer constructor.
    for i in 0..n {
        let Some(name) = ident(&toks[i]) else {
            continue;
        };
        if !toks.get(i + 1).is_some_and(|t| punct(t, ':')) {
            continue;
        }
        // Skip `::` paths.
        if toks.get(i + 2).is_some_and(|t| punct(t, ':')) {
            continue;
        }
        // Scan the type expression: until `=`, `;`, `)`, `,`, `{`, `>`
        // at angle depth 0.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut type_idents: Vec<&str> = Vec::new();
        let mut outer: Option<&str> = None;
        // `[T]` / `[T; n]` slices and arrays are containers reached by
        // indexing, same as Vec — `&mut [HashSet<u32>]` must classify
        // as a hash *container*, not a hash type.
        let mut slice_outer = false;
        while j < n {
            match &toks[j].kind {
                TokKind::Punct('[') if depth == 0 && outer.is_none() => {
                    slice_outer = true;
                }
                TokKind::Punct('<') => {
                    if depth == 0 && outer.is_none() {
                        outer = type_idents.last().copied();
                    }
                    depth += 1;
                }
                TokKind::Punct('>') => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                TokKind::Punct('=' | ';' | ')' | ',' | '{' | '}') if depth == 0 => break,
                TokKind::Ident(s) => type_idents.push(s.as_str()),
                _ => {}
            }
            j += 1;
        }
        if type_idents.is_empty() {
            continue;
        }
        let outer = outer.unwrap_or_else(|| type_idents.last().copied().unwrap_or(""));
        let mentions_hash = type_idents.iter().any(|s| is_hash_name(s));
        if !mentions_hash {
            continue;
        }
        if is_hash_name(outer) && !slice_outer {
            hash_idents.insert(name.to_string());
        } else {
            container_idents.insert(name.to_string());
        }
    }

    // `NAME = HashMap::new()` / `NAME = vec![HashMap::..; ..]`.
    for i in 0..n {
        let Some(name) = ident(&toks[i]) else {
            continue;
        };
        if !toks.get(i + 1).is_some_and(|t| punct(t, '=')) {
            continue;
        }
        match toks.get(i + 2).and_then(ident) {
            Some(s) if is_hash_name(s) => {
                hash_idents.insert(name.to_string());
            }
            Some("vec")
                if toks.get(i + 3).is_some_and(|t| punct(t, '!'))
                    && toks.get(i + 5).and_then(ident).is_some_and(is_hash_name) =>
            {
                container_idents.insert(name.to_string());
            }
            _ => {}
        }
    }

    // `for PAT in <expr>` — rebind loop vars over hash containers.
    for i in 0..n {
        if ident(&toks[i]) != Some("for") {
            continue;
        }
        // Pattern idents until `in`.
        let mut j = i + 1;
        let mut pat: Vec<&str> = Vec::new();
        while j < n && ident(&toks[j]) != Some("in") {
            if let Some(s) = ident(&toks[j]) {
                if s != "mut" && s != "ref" {
                    pat.push(s);
                }
            }
            if punct(&toks[j], '{') {
                break; // not a for loop header after all
            }
            j += 1;
        }
        if j >= n || ident(&toks[j]) != Some("in") {
            continue;
        }
        // Expression until `{` at depth 0.
        let mut k = j + 1;
        let mut pdepth = 0i32;
        let mut expr: Vec<usize> = Vec::new();
        while k < n {
            match toks[k].kind {
                TokKind::Punct('(' | '[') => pdepth += 1,
                TokKind::Punct(')' | ']') => pdepth -= 1,
                TokKind::Punct('{') if pdepth == 0 => break,
                _ => {}
            }
            expr.push(k);
            k += 1;
        }
        let iterates_container = expr.iter().any(|&e| {
            ident(&toks[e]).is_some_and(|s| container_idents.contains(s))
                && !toks.get(e + 1).is_some_and(|t| punct(t, '['))
        });
        if iterates_container {
            if let Some(last) = pat.last() {
                hash_idents.insert((*last).to_string());
            }
        }
    }

    // ---- pass 2: flag iteration sites.
    let mut out = Vec::new();
    let mut flag = |line: u32, name: &str, how: &str| {
        out.push(Violation {
            file: rel_path.to_string(),
            line,
            rule: RuleId::UnorderedIter,
            message: format!(
                "{how} over hash-ordered `{name}` can reorder under a different \
                 hasher/layout; use BTreeMap/sorted vectors, or annotate \
                 `adp-lint: allow(unordered-iter) -- <why order-insensitive>`"
            ),
        });
    };

    for i in 0..n {
        let Some(name) = ident(&toks[i]) else {
            continue;
        };
        // Direct method call on a hash-typed ident: `h.iter()`.
        if hash_idents.contains(name) {
            if toks.get(i + 1).is_some_and(|t| punct(t, '.')) {
                if let Some(m) = toks.get(i + 2).and_then(ident) {
                    if HASH_ITER_METHODS.contains(&m)
                        && toks.get(i + 3).is_some_and(|t| punct(t, '('))
                    {
                        flag(toks[i].line, name, &format!(".{m}()"));
                    }
                }
            }
            continue;
        }
        // Indexed element of a hash container: `v[i].iter()`.
        if container_idents.contains(name) && toks.get(i + 1).is_some_and(|t| punct(t, '[')) {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < n {
                match toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if toks.get(j + 1).is_some_and(|t| punct(t, '.')) {
                if let Some(m) = toks.get(j + 2).and_then(ident) {
                    if HASH_ITER_METHODS.contains(&m)
                        && toks.get(j + 3).is_some_and(|t| punct(t, '('))
                    {
                        flag(toks[i].line, name, &format!("[..].{m}()"));
                    }
                }
            }
        }
    }

    // `for .. in [&[mut]] h` / `for .. in &self.h` — ends right at `{`.
    for i in 0..n {
        if ident(&toks[i]) != Some("for") {
            continue;
        }
        let mut j = i + 1;
        while j < n && ident(&toks[j]) != Some("in") {
            if punct(&toks[j], '{') {
                break;
            }
            j += 1;
        }
        if j >= n || ident(&toks[j]) != Some("in") {
            continue;
        }
        let mut k = j + 1;
        let mut pdepth = 0i32;
        let mut last_ident: Option<(usize, &str)> = None;
        while k < n {
            match &toks[k].kind {
                TokKind::Punct('(' | '[') => pdepth += 1,
                TokKind::Punct(')' | ']') => pdepth -= 1,
                TokKind::Punct('{') if pdepth == 0 => break,
                TokKind::Ident(s) => last_ident = Some((k, s.as_str())),
                _ => {}
            }
            k += 1;
        }
        if let Some((idx, name)) = last_ident {
            // Only when the expression ENDS at the ident (no method
            // call after it — those are handled above).
            if idx + 1 == k && hash_idents.contains(name) {
                flag(toks[i].line, name, "for-in");
            }
        }
    }

    out.sort();
    out.dedup();
    out
}
