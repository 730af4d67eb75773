//! Pass 3: panic-discipline lint — direct and transitive.
//!
//! Production code in the configured paths (the serving layer by default)
//! must not call `unwrap()`/`expect()` or invoke `panic!`/`unreachable!`:
//! a panic in a worker or connection thread silently removes capacity, and
//! every recoverable failure already has a structured `QuheError` kind with
//! a wire tag. Sites that are genuinely unreachable-or-corrupt (documented
//! startup panics, constructors fed compile-time constants) are exempted
//! through `[[allow.panic]]` entries in `analyze.toml` — each entry names
//! the file, a substring of the offending line, and a non-empty
//! justification.
//!
//! The *transitive* half extends the guarantee past the configured paths:
//! serve entry points listed under `[panics] roots` are walked through the
//! workspace call graph, and a panic site anywhere they can reach — a
//! solver helper in `core`, a projection in `opt` — is reported with its
//! full call chain, because a panic two calls below `handle` takes the
//! worker down just as surely as one inside it.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::config::AnalyzeConfig;
use crate::diag::{Diagnostic, Lint};
use crate::lexer::TokenKind;
use crate::scan::{FnItem, SourceFile};

/// Runs the pass over all files.
pub fn run(
    files: &[SourceFile],
    config: &AnalyzeConfig,
    graph: &CallGraph,
    diags: &mut Vec<Diagnostic>,
) {
    let mut used = vec![false; config.panic_allow.len()];
    for (idx, entry) in config.panic_allow.iter().enumerate() {
        if entry.reason.trim().is_empty() {
            diags.push(Diagnostic::new(
                "analyze.toml",
                0,
                Lint::Config,
                format!(
                    "[[allow.panic]] entry for `{}` (pattern `{}`) has an empty reason; \
                     every exemption needs a justification",
                    entry.file, entry.pattern
                ),
            ));
            used[idx] = true; // don't also report it as stale
        }
    }

    // Direct findings: every production function under the configured paths.
    let methods = owned_methods(files);
    let in_paths = |path: &str| config.panic_paths.iter().any(|p| path.starts_with(p));
    for file in files {
        if !in_paths(&file.path) {
            continue;
        }
        for item in &file.fns {
            if item.is_test {
                continue;
            }
            let Some((open, close)) = item.body else {
                continue;
            };
            for (line, what) in panic_sites(file, item, open, close, &methods) {
                if allowed(file, line, config, &mut used) {
                    continue;
                }
                diags.push(Diagnostic::new(
                    &file.path,
                    line,
                    Lint::PanicDiscipline,
                    format!(
                        "`{what}` on a production serve path; return a structured `QuheError` \
                         or add a justified [[allow.panic]] entry in analyze.toml"
                    ),
                ));
            }
        }
    }

    // Transitive findings: panic sites reachable from the configured serve
    // entry points, outside the directly-scanned paths.
    let mut roots: Vec<usize> = Vec::new();
    for spec in &config.panic_roots {
        let matched = graph.find_roots(spec);
        if matched.is_empty() {
            diags.push(Diagnostic::new(
                "analyze.toml",
                0,
                Lint::Config,
                format!("[panics] roots entry `{spec}` matches no function in the workspace"),
            ));
        }
        roots.extend(matched);
    }
    let parent = graph.reachable(&roots);
    for &node_idx in parent.keys() {
        let node = &graph.nodes[node_idx];
        if in_paths(&node.file) {
            // Direct-covered above (roots usually live inside the serve
            // paths); re-reporting with a chain would duplicate the finding.
            continue;
        }
        let file = &files[node.file_idx];
        let item = &file.fns[node.fn_idx];
        let Some((open, close)) = item.body else {
            continue;
        };
        for (line, what) in panic_sites(file, item, open, close, &methods) {
            if allowed(file, line, config, &mut used) {
                continue;
            }
            let chain = graph.chain(&parent, node_idx);
            let root = chain[0].clone();
            let rendered = chain.join(" -> ");
            diags.push(Diagnostic::with_chain(
                &file.path,
                line,
                Lint::PanicDiscipline,
                format!(
                    "serve entry `{root}` reaches `{what}`: {rendered} panics at {}:{line}; \
                     return a structured `QuheError` or add a justified [[allow.panic]] \
                     entry in analyze.toml",
                    file.path
                ),
                chain,
            ));
        }
    }

    for (idx, entry) in config.panic_allow.iter().enumerate() {
        if !used[idx] {
            diags.push(Diagnostic::new(
                "analyze.toml",
                0,
                Lint::Config,
                format!(
                    "stale [[allow.panic]] entry: `{}` (pattern `{}`) matches no site",
                    entry.file, entry.pattern
                ),
            ));
        }
    }
}

/// Whether a site line is covered by a justified `[[allow.panic]]` entry,
/// marking every matching entry used.
fn allowed(file: &SourceFile, line: u32, config: &AnalyzeConfig, used: &mut [bool]) -> bool {
    let text = file.line_text(line);
    let mut hit = false;
    for (idx, entry) in config.panic_allow.iter().enumerate() {
        if entry.file == file.path && text.contains(&entry.pattern) {
            used[idx] = true;
            if !entry.reason.trim().is_empty() {
                hit = true;
            }
        }
    }
    hit
}

/// `(owner, method)` pairs for every inherent/trait method in the workspace,
/// used to tell `self.expect(...)` on a type with its own fallible `expect`
/// apart from `Option::expect`/`Result::expect`.
pub(crate) fn owned_methods(files: &[SourceFile]) -> BTreeSet<(String, String)> {
    let mut methods = BTreeSet::new();
    for file in files {
        for item in &file.fns {
            if let Some(owner) = &item.owner {
                methods.insert((owner.clone(), item.name.clone()));
            }
        }
    }
    methods
}

/// Panic-shaped sites in `item`'s body, as `(line, rendered)` pairs.
///
/// A `self.unwrap()`/`self.expect(...)` call is *not* a site when the
/// caller's own impl owner defines a method of that name — it dispatches to
/// that (fallible) method, not to the std combinator.
pub(crate) fn panic_sites(
    file: &SourceFile,
    item: &FnItem,
    open: usize,
    close: usize,
    methods: &BTreeSet<(String, String)>,
) -> Vec<(u32, String)> {
    let tokens = &file.tokens;
    let ident = |i: usize| tokens.get(i).and_then(|t| t.ident());
    let punct = |i: usize, c: char| tokens.get(i).is_some_and(|t| t.is_punct(c));
    let own_method = |name: &str| {
        item.owner
            .as_ref()
            .is_some_and(|owner| methods.contains(&(owner.clone(), name.to_string())))
    };
    let hi = close.min(tokens.len().saturating_sub(1));
    let mut sites = Vec::new();
    for (i, token) in tokens.iter().enumerate().take(hi + 1).skip(open) {
        let what = match &token.kind {
            TokenKind::Punct('.')
                if matches!(ident(i + 1), Some("unwrap" | "expect")) && punct(i + 2, '(') =>
            {
                let name = ident(i + 1).unwrap_or_default();
                let self_receiver = i > 0 && ident(i - 1) == Some("self");
                if self_receiver && own_method(name) {
                    None
                } else {
                    Some(format!(".{name}()"))
                }
            }
            TokenKind::Ident(name)
                if (name == "panic" || name == "unreachable") && punct(i + 1, '!') =>
            {
                Some(format!("{name}!"))
            }
            _ => None,
        };
        if let Some(what) = what {
            sites.push((tokens[i].line, what));
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PanicAllow;

    fn run_on(source: &str, allow: Vec<PanicAllow>) -> Vec<Diagnostic> {
        run_with(&[("crates/serve/src/x.rs", source)], allow, Vec::new())
    }

    fn run_with(
        sources: &[(&str, &str)],
        allow: Vec<PanicAllow>,
        roots: Vec<String>,
    ) -> Vec<Diagnostic> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(path, src)| SourceFile::parse(*path, src))
            .collect();
        let config = AnalyzeConfig {
            panic_paths: vec!["crates/serve/src".to_string()],
            panic_allow: allow,
            panic_roots: roots,
            ..AnalyzeConfig::default()
        };
        let graph = CallGraph::build(&files);
        let mut diags = Vec::new();
        run(&files, &config, &graph, &mut diags);
        crate::diag::sort(&mut diags);
        diags
    }

    #[test]
    fn flags_unwrap_expect_panic_unreachable() {
        let diags = run_on(
            "fn f(x: Option<u32>) -> u32 {\n\
                 let a = x.unwrap();\n\
                 let b = x.expect(\"present\");\n\
                 if a > b { panic!(\"impossible\"); }\n\
                 unreachable!()\n\
             }",
            Vec::new(),
        );
        let whats: Vec<_> = diags
            .iter()
            .map(|d| d.message.split('`').nth(1).unwrap().to_string())
            .collect();
        assert_eq!(
            whats,
            vec![".unwrap()", ".expect()", "panic!", "unreachable!"]
        );
    }

    #[test]
    fn adapters_and_similar_names_are_not_flagged() {
        let diags = run_on(
            "fn f(x: Result<u32, u32>) -> u32 {\n\
                 x.unwrap_or_else(|e| e)\n\
             }\n\
             fn g(x: Result<u32, u32>) -> u32 { x.unwrap_or(0) }",
            Vec::new(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn justified_allowlist_entries_exempt_their_site() {
        let allow = vec![PanicAllow {
            file: "crates/serve/src/x.rs".to_string(),
            pattern: "expect(\"linked node\")".to_string(),
            reason: "intrusive-list invariant".to_string(),
        }];
        let diags = run_on(
            "fn f(x: Option<u32>) -> u32 { x.expect(\"linked node\") }",
            allow,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn empty_reason_and_stale_entries_are_config_diagnostics() {
        let allow = vec![
            PanicAllow {
                file: "crates/serve/src/x.rs".to_string(),
                pattern: "unwrap()".to_string(),
                reason: String::new(),
            },
            PanicAllow {
                file: "crates/serve/src/x.rs".to_string(),
                pattern: "never matches".to_string(),
                reason: "justified".to_string(),
            },
        ];
        let diags = run_on("fn f(x: Option<u32>) -> u32 { x.unwrap() }", allow);
        // Empty reason → config diagnostic AND the site still flagged;
        // unmatched pattern → stale-entry diagnostic.
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("empty reason")));
        assert!(diags.iter().any(|d| d.message.contains("stale")));
        assert!(diags.iter().any(|d| d.lint == Lint::PanicDiscipline));
    }

    #[test]
    fn test_code_is_exempt() {
        let diags = run_on(
            "#[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { Some(1).unwrap(); panic!(\"in tests this is fine\"); }\n\
             }",
            Vec::new(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn serve_roots_reach_panics_outside_the_configured_paths() {
        let diags = run_with(
            &[
                (
                    "crates/serve/src/service.rs",
                    "pub fn handle() { deep_solve(); }\nfn deep_solve() { core_step(); }",
                ),
                (
                    "crates/core/src/solver.rs",
                    "pub fn core_step() { Some(1).unwrap(); }",
                ),
            ],
            Vec::new(),
            vec!["crates/serve/src/service.rs::handle".to_string()],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, "crates/core/src/solver.rs");
        assert_eq!(diags[0].chain, vec!["handle", "deep_solve", "core_step"]);
        assert!(
            diags[0].message.contains(
                "handle -> deep_solve -> core_step panics at crates/core/src/solver.rs:1"
            ),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn self_calls_to_an_owners_own_expect_are_not_sites() {
        let diags = run_on(
            "struct Parser { pos: usize }\n\
             impl Parser {\n\
                 fn expect(&mut self, byte: u8) -> Result<(), String> { Ok(()) }\n\
                 fn parse(&mut self, opt: Option<u8>) -> Result<(), String> {\n\
                     self.expect(b'{')?;\n\
                     opt.expect(\"still the std combinator\");\n\
                     Ok(())\n\
                 }\n\
             }",
            Vec::new(),
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 6, "{diags:?}");
    }

    #[test]
    fn stale_roots_are_config_diagnostics() {
        let diags = run_with(
            &[("crates/serve/src/x.rs", "fn ok() {}")],
            Vec::new(),
            vec!["crates/serve/src/x.rs::missing".to_string()],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .message
            .contains("[panics] roots entry `crates/serve/src/x.rs::missing`"));
    }
}
