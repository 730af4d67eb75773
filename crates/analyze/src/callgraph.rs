//! The workspace call graph: who can call whom, resolved from the token
//! stream without type information.
//!
//! The graph is the substrate for the transitive passes — hot-path
//! allocation, panic discipline and determinism all walk reachability from
//! configured roots, so the contract a root promises ("never allocates",
//! "never panics", "bit-identical output") extends through every helper it
//! can reach instead of stopping at the function boundary.
//!
//! Resolution is heuristic and deliberately *over-approximates*:
//!
//! - `self.method(...)` and `Self::method(...)` resolve through the calling
//!   function's `impl` owner — precise.
//! - `Type::method(...)` resolves by `(owner, name)` — precise when the
//!   owner defines the method.
//! - `module::free_fn(...)` prefers free functions whose defining file
//!   matches the module path segment, then falls back to all free functions
//!   of that name.
//! - `receiver.method(...)` with an untyped receiver resolves to *every*
//!   workspace method of that name (trait calls dispatch to any impl), so a
//!   chain through a trait object is never missed. Method names that shadow
//!   ubiquitous std-collection methods (`len`, `insert`, `get`, ...) are
//!   exempt from this fallback — an edge from every `.get(` into an
//!   unrelated workspace `get` would drown the graph in noise.
//! - A function passed by path as the sole argument of a method call —
//!   `.then(f)`, `.map(Owner::f)`, `.map(module::f)` — is called by that
//!   method, so the path is a call site too, resolved by the rules above.
//!   Such a path that names no workspace function is not counted as a site
//!   at all: it is a local at least as often as an external function, and a
//!   local that shares a workspace function's name gets that function's
//!   edge (an over-approximation).
//! - Call sites whose callee name exists nowhere in the workspace are
//!   *external* (std or vendored) and produce no edge.
//!
//! A call with more than one candidate keeps **all** candidate edges and is
//! counted as *unresolved* in [`GraphStats`]; `--stats` surfaces the
//! unresolved fraction so the precision of the heuristics is measurable and
//! CI can pin it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::TokenKind;
use crate::scan::SourceFile;

/// One function node in the graph, addressing back into the scanned files.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the defining file in the `files` slice the graph was built
    /// from.
    pub file_idx: usize,
    /// Index of the [`crate::scan::FnItem`] within that file.
    pub fn_idx: usize,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// The function name.
    pub name: String,
    /// The `impl` owner for methods.
    pub owner: Option<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Whether the function is test code (excluded from reachability).
    pub is_test: bool,
}

impl FnNode {
    /// The display name used in call-chain diagnostics: `Owner::name` for
    /// methods, plain `name` for free functions.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// The qualified `<file>::<name>` form used by `analyze.toml` roots.
    pub fn qualified(&self) -> String {
        format!("{}::{}", self.file, self.name)
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// 1-indexed line of the call site in the caller's file.
    pub line: u32,
}

/// Call-site resolution counters; the denominator of the unresolved
/// fraction is the sites that produced at least one edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Non-test function nodes.
    pub functions: usize,
    /// Total resolved edges.
    pub edges: usize,
    /// Call sites examined (external ones included).
    pub call_sites: usize,
    /// Sites that resolved to exactly one candidate.
    pub resolved: usize,
    /// Sites kept with more than one candidate edge (over-approximated).
    pub unresolved: usize,
    /// Sites whose callee name is not defined anywhere in the workspace.
    pub external: usize,
}

impl GraphStats {
    /// `unresolved / (resolved + unresolved)`, `0.0` when no site produced
    /// an edge.
    pub fn unresolved_fraction(&self) -> f64 {
        let denominator = self.resolved + self.unresolved;
        if denominator == 0 {
            0.0
        } else {
            self.unresolved as f64 / denominator as f64
        }
    }
}

/// The whole-workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All function nodes, ordered by (file, source order) — deterministic.
    pub nodes: Vec<FnNode>,
    /// Adjacency: `edges[i]` are the calls out of node `i`, in call-site
    /// order with duplicates (same callee, later line) removed.
    pub edges: Vec<Vec<Edge>>,
    /// Resolution counters.
    pub stats: GraphStats,
}

/// Dotted-call names that shadow ubiquitous std-collection/iterator methods:
/// an untyped `receiver.len()` is a std call for every receiver the
/// workspace actually has, so these never resolve through the
/// any-method-of-that-name fallback (self-receiver and `Type::`-qualified
/// calls still resolve precisely).
const STD_SHADOWED_METHODS: &[&str] = &[
    "clear",
    "clone",
    "cmp",
    "contains",
    "contains_key",
    "drain",
    "entry",
    "eq",
    "extend",
    "first",
    "fmt",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "last",
    "len",
    "next",
    "pop",
    "push",
    "remove",
    "retain",
    "values",
    "write_str",
];

/// Keywords that look like a call when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where", "while",
];

/// How a call site names its callee.
enum Callee {
    /// `receiver.name(...)` — `self_receiver` when the receiver token is
    /// literally `self`.
    Method { name: String, self_receiver: bool },
    /// `Owner::name(...)` with a capitalized owner segment (`Self` counts).
    Qualified { owner: String, name: String },
    /// `module::name(...)` with a lowercase path segment.
    Path { module: String, name: String },
    /// Bare `name(...)`.
    Bare { name: String },
}

impl CallGraph {
    /// Builds the graph over the scanned files.
    pub fn build(files: &[SourceFile]) -> Self {
        let mut nodes = Vec::new();
        for (file_idx, file) in files.iter().enumerate() {
            for (fn_idx, item) in file.fns.iter().enumerate() {
                nodes.push(FnNode {
                    file_idx,
                    fn_idx,
                    file: file.path.clone(),
                    name: item.name.clone(),
                    owner: item.owner.clone(),
                    line: item.line,
                    is_test: item.is_test,
                });
            }
        }

        // Name indexes over non-test nodes. Methods and free functions are
        // kept apart: a dotted call never targets a free function and a
        // bare call never targets a method.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free_fns: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (idx, node) in nodes.iter().enumerate() {
            if node.is_test {
                continue;
            }
            match &node.owner {
                Some(owner) => {
                    methods.entry(&node.name).or_default().push(idx);
                    by_owner
                        .entry((owner.as_str(), node.name.as_str()))
                        .or_default()
                        .push(idx);
                }
                None => free_fns.entry(&node.name).or_default().push(idx),
            }
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        let mut stats = GraphStats {
            functions: nodes.iter().filter(|n| !n.is_test).count(),
            ..GraphStats::default()
        };

        for (caller_idx, node) in nodes.iter().enumerate() {
            if node.is_test {
                continue;
            }
            let file = &files[node.file_idx];
            let item = &file.fns[node.fn_idx];
            let Some((open, close)) = item.body else {
                continue;
            };
            for site in call_sites(file, open, close) {
                let candidates = resolve(
                    &site.callee,
                    node,
                    files,
                    &nodes,
                    &methods,
                    &by_owner,
                    &free_fns,
                );
                if site.passed && candidates.is_empty() {
                    continue;
                }
                stats.call_sites += 1;
                match candidates.len() {
                    0 => stats.external += 1,
                    1 => stats.resolved += 1,
                    _ => stats.unresolved += 1,
                }
                for to in candidates {
                    if edges[caller_idx].iter().all(|e| e.to != to) {
                        edges[caller_idx].push(Edge {
                            to,
                            line: site.line,
                        });
                    }
                }
            }
        }
        stats.edges = edges.iter().map(Vec::len).sum();
        CallGraph {
            nodes,
            edges,
            stats,
        }
    }

    /// Node indices matching a `"<file>::<name>"` root specification (every
    /// non-test overload of the name in that file matches).
    pub fn find_roots(&self, spec: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_test && n.qualified() == spec)
            .map(|(idx, _)| idx)
            .collect()
    }

    /// Breadth-first reachability from `roots`: for every reachable node,
    /// the predecessor on a shortest chain back to a root (`parent[i]` is
    /// `i` itself for roots). Test nodes are never entered.
    pub fn reachable(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let ordered: BTreeSet<usize> = roots.iter().copied().collect();
        for &root in &ordered {
            if !self.nodes[root].is_test {
                parent.insert(root, root);
                queue.push_back(root);
            }
        }
        while let Some(node) = queue.pop_front() {
            for edge in &self.edges[node] {
                if self.nodes[edge.to].is_test || parent.contains_key(&edge.to) {
                    continue;
                }
                parent.insert(edge.to, node);
                queue.push_back(edge.to);
            }
        }
        parent
    }

    /// The root-to-`node` call chain of display names implied by a
    /// [`CallGraph::reachable`] parent map.
    pub fn chain(&self, parent: &BTreeMap<usize, usize>, node: usize) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cursor = node;
        loop {
            chain.push(self.nodes[cursor].display());
            let up = parent[&cursor];
            if up == cursor {
                break;
            }
            cursor = up;
        }
        chain.reverse();
        chain
    }
}

/// One syntactic call site inside a function body.
struct CallSite {
    line: u32,
    callee: Callee,
    /// Whether the callee is passed by path to a method rather than called.
    passed: bool,
}

/// Extracts call sites from the body token range `(open, close)`.
fn call_sites(file: &SourceFile, open: usize, close: usize) -> Vec<CallSite> {
    let tokens = &file.tokens;
    let hi = close.min(tokens.len().saturating_sub(1));
    let mut sites = Vec::new();
    for i in open..=hi {
        let TokenKind::Ident(name) = &tokens[i].kind else {
            continue;
        };
        if NON_CALL_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        // The callee name must be followed by `(` directly or through a
        // `::<...>` turbofish.
        let after = i + 1;
        let is_call = if tokens.get(after).is_some_and(|t| t.is_punct('(')) {
            true
        } else if tokens.get(after).is_some_and(|t| t.is_punct(':'))
            && tokens.get(after + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(after + 2).is_some_and(|t| t.is_punct('<'))
        {
            let past = skip_angles(tokens, after + 2);
            tokens.get(past).is_some_and(|t| t.is_punct('('))
        } else {
            false
        };
        if !is_call {
            continue;
        }
        // Classify by what precedes the name.
        let callee = if i >= 1 && tokens[i - 1].is_punct('.') {
            // `receiver.name(...)`: macro bang impossible here.
            if tokens.get(after).is_some_and(|t| t.is_punct('(')) {
                if let Some(callee) = passed_function(tokens, after + 1) {
                    sites.push(CallSite {
                        line: tokens[after + 1].line,
                        callee,
                        passed: true,
                    });
                }
            }
            let self_receiver = i >= 2 && tokens[i - 2].ident() == Some("self");
            Callee::Method {
                name: name.clone(),
                self_receiver,
            }
        } else if i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':') {
            match tokens.get(i.wrapping_sub(3)).and_then(|t| t.ident()) {
                Some(segment) if starts_upper(segment) || segment == "Self" => Callee::Qualified {
                    owner: segment.to_string(),
                    name: name.clone(),
                },
                Some(segment) => Callee::Path {
                    module: segment.to_string(),
                    name: name.clone(),
                },
                // `<Type as Trait>::name(...)` and friends: treat as an
                // untyped method call so trait over-approximation applies.
                None => Callee::Method {
                    name: name.clone(),
                    self_receiver: false,
                },
            }
        } else {
            // A bare call. Skip definitions (`fn name(`) and macro bangs
            // were already excluded; tuple-struct constructors are
            // capitalized and skipped here.
            if i >= 1 && tokens[i - 1].ident() == Some("fn") {
                continue;
            }
            if starts_upper(name) {
                continue;
            }
            Callee::Bare { name: name.clone() }
        };
        sites.push(CallSite {
            line: tokens[i].line,
            callee,
            passed: false,
        });
    }
    sites
}

/// The function a method call's argument list names by path, when a path
/// is its sole argument: `f`, `Owner::f` or `module::f` between the
/// parentheses, `args` being the index just past the `(`. A capitalized
/// bare argument is a constructor or a value, not a function.
fn passed_function(tokens: &[crate::lexer::Token], args: usize) -> Option<Callee> {
    let ident = |j: usize| tokens.get(j).and_then(|t| t.ident());
    let punct = |j: usize, c: char| tokens.get(j).is_some_and(|t| t.is_punct(c));
    let first = ident(args)?;
    if punct(args + 1, ')') {
        let value = starts_upper(first) || first == "self" || NON_CALL_KEYWORDS.contains(&first);
        return (!value).then(|| Callee::Bare {
            name: first.to_string(),
        });
    }
    if !(punct(args + 1, ':') && punct(args + 2, ':') && punct(args + 4, ')')) {
        return None;
    }
    let name = ident(args + 3)?.to_string();
    Some(if starts_upper(first) {
        Callee::Qualified {
            owner: first.to_string(),
            name,
        }
    } else {
        Callee::Path {
            module: first.to_string(),
            name,
        }
    })
}

/// Resolves a callee to candidate node indices (empty = external).
fn resolve(
    callee: &Callee,
    caller: &FnNode,
    files: &[SourceFile],
    nodes: &[FnNode],
    methods: &BTreeMap<&str, Vec<usize>>,
    by_owner: &BTreeMap<(&str, &str), Vec<usize>>,
    free_fns: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    match callee {
        Callee::Method {
            name,
            self_receiver,
        } => {
            if *self_receiver {
                if let Some(owner) = &caller.owner {
                    if let Some(precise) = by_owner.get(&(owner.as_str(), name.as_str())) {
                        return precise.clone();
                    }
                }
            }
            if !*self_receiver && STD_SHADOWED_METHODS.contains(&name.as_str()) {
                return Vec::new();
            }
            methods.get(name.as_str()).cloned().unwrap_or_default()
        }
        Callee::Qualified { owner, name } => {
            let owner = if owner == "Self" {
                match &caller.owner {
                    Some(own) => own.as_str(),
                    None => return Vec::new(),
                }
            } else {
                owner.as_str()
            };
            by_owner
                .get(&(owner, name.as_str()))
                .cloned()
                .unwrap_or_default()
        }
        Callee::Path { module, name } => {
            let candidates = free_fns.get(name.as_str()).cloned().unwrap_or_default();
            let by_module: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&idx| file_matches_module(&files[nodes[idx].file_idx].path, module))
                .collect();
            if by_module.is_empty() {
                candidates
            } else {
                by_module
            }
        }
        Callee::Bare { name } => {
            let candidates = free_fns.get(name.as_str()).cloned().unwrap_or_default();
            // Prefer the caller's own file (the common unqualified call),
            // then fall back to every free function of that name.
            let same_file: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&idx| nodes[idx].file_idx == caller.file_idx)
                .collect();
            if same_file.is_empty() {
                candidates
            } else {
                same_file
            }
        }
    }
}

/// Whether a file path defines the module named by a call-path segment:
/// `.../<module>.rs` or `.../<module>/mod.rs` (and crate roots `lib.rs` /
/// `main.rs` match the segment `crate`).
fn file_matches_module(path: &str, module: &str) -> bool {
    let stem = path
        .rsplit('/')
        .next()
        .and_then(|name| name.strip_suffix(".rs"))
        .unwrap_or("");
    if stem == module {
        return true;
    }
    if stem == "mod" || stem == "lib" || stem == "main" {
        let parent = path.rsplit('/').nth(1).unwrap_or("");
        return parent == module || ((stem == "lib" || stem == "main") && module == "crate");
    }
    false
}

fn starts_upper(name: &str) -> bool {
    name.chars().next().is_some_and(char::is_uppercase)
}

/// Skips a balanced `<...>` group starting at the `<` at `start`, returning
/// the index just past the matching `>`.
fn skip_angles(tokens: &[crate::lexer::Token], start: usize) -> usize {
    let mut depth = 0isize;
    let mut j = start;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(sources: &[(&str, &str)]) -> CallGraph {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(path, source)| SourceFile::parse(*path, source))
            .collect();
        CallGraph::build(&files)
    }

    fn edge_names(g: &CallGraph, from: &str) -> Vec<String> {
        let idx = g.nodes.iter().position(|n| n.display() == from).unwrap();
        g.edges[idx]
            .iter()
            .map(|e| g.nodes[e.to].display())
            .collect()
    }

    #[test]
    fn bare_calls_prefer_the_same_file() {
        let g = graph(&[
            ("a.rs", "fn helper() {}\nfn caller() { helper(); }"),
            ("b.rs", "fn helper() {}"),
        ]);
        assert_eq!(edge_names(&g, "caller"), vec!["helper"]);
        let idx = g
            .nodes
            .iter()
            .position(|n| n.display() == "caller")
            .unwrap();
        assert_eq!(g.nodes[g.edges[idx][0].to].file, "a.rs");
        assert_eq!(g.stats.resolved, 1);
        assert_eq!(g.stats.unresolved, 0);
    }

    #[test]
    fn a_bare_function_passed_to_a_method_is_called() {
        let g = graph(&[(
            "a.rs",
            "fn build() -> u32 { 1 }\n\
             fn caller(on: bool) -> Option<u32> { on.then(build) }",
        )]);
        assert_eq!(edge_names(&g, "caller"), vec!["build"]);
        assert_eq!(g.stats.resolved, 1);
    }

    #[test]
    fn an_owner_qualified_function_passed_to_a_method_is_called() {
        let g = graph(&[(
            "a.rs",
            "struct Served;\n\
             struct Other;\n\
             impl Served { fn into_response(self) -> u32 { 1 } }\n\
             impl Other { fn into_response(self) -> u32 { 2 } }\n\
             fn caller(x: Option<Served>) -> Option<u32> { x.map(Served::into_response) }",
        )]);
        assert_eq!(edge_names(&g, "caller"), vec!["Served::into_response"]);
        assert_eq!(g.stats.resolved, 1);
    }

    #[test]
    fn a_module_path_function_passed_to_a_method_is_called() {
        let g = graph(&[
            ("crates/x/src/alpha.rs", "pub fn parse(x: u32) -> u32 { x }"),
            ("crates/x/src/beta.rs", "pub fn parse(x: u32) -> u32 { x }"),
            (
                "crates/x/src/lib.rs",
                "fn caller(x: Option<u32>) -> Option<u32> { x.map(beta::parse) }",
            ),
        ]);
        let idx = g
            .nodes
            .iter()
            .position(|n| n.display() == "caller")
            .unwrap();
        let files: Vec<&str> = g.edges[idx]
            .iter()
            .map(|e| g.nodes[e.to].file.as_str())
            .collect();
        assert_eq!(files, vec!["crates/x/src/beta.rs"]);
        assert_eq!(g.stats.resolved, 1);
    }

    #[test]
    fn a_local_passed_to_a_method_makes_no_edge() {
        let g = graph(&[(
            "a.rs",
            "fn helper() {}\n\
             fn caller(xs: &mut Vec<u32>, item: u32, n: u32) { helper(); xs.push(item); \
             xs.extend(n, item); }",
        )]);
        assert_eq!(edge_names(&g, "caller"), vec!["helper"]);
        // `helper`, `push` and `extend`: the local `item` is no call site.
        assert_eq!(g.stats.call_sites, 3);
        assert_eq!(g.stats.resolved, 1);
        assert_eq!(g.stats.unresolved, 0);
    }

    #[test]
    fn self_method_calls_resolve_through_the_impl_owner() {
        let g = graph(&[(
            "a.rs",
            "struct Foo;\n\
             struct Bar;\n\
             impl Foo { fn work(&self) {} fn run(&self) { self.work(); } }\n\
             impl Bar { fn work(&self) {} }",
        )]);
        assert_eq!(edge_names(&g, "Foo::run"), vec!["Foo::work"]);
        assert_eq!(g.stats.resolved, 1);
    }

    #[test]
    fn untyped_receivers_over_approximate_to_every_impl() {
        let g = graph(&[(
            "a.rs",
            "struct Foo;\n\
             struct Bar;\n\
             impl Foo { fn work(&self) {} }\n\
             impl Bar { fn work(&self) {} }\n\
             fn dispatch(x: &Foo) { x.work(); }",
        )]);
        assert_eq!(edge_names(&g, "dispatch"), vec!["Foo::work", "Bar::work"]);
        assert_eq!(g.stats.unresolved, 1);
    }

    #[test]
    fn std_shadowed_method_names_stay_external() {
        let g = graph(&[(
            "a.rs",
            "struct Cache;\n\
             impl Cache { fn len(&self) -> usize { 0 } }\n\
             fn count(xs: &[u32]) -> usize { xs.len() }",
        )]);
        assert_eq!(edge_names(&g, "count"), Vec::<String>::new());
        assert_eq!(g.stats.external, 1);
    }

    #[test]
    fn module_paths_disambiguate_shadowed_free_fns() {
        let g = graph(&[
            ("crates/x/src/alpha.rs", "pub fn run() {}"),
            ("crates/x/src/beta.rs", "pub fn run() {}"),
            (
                "crates/x/src/lib.rs",
                "fn main_loop() { alpha::run(); beta::run(); }",
            ),
        ]);
        let idx = g
            .nodes
            .iter()
            .position(|n| n.display() == "main_loop")
            .unwrap();
        let files: Vec<&str> = g.edges[idx]
            .iter()
            .map(|e| g.nodes[e.to].file.as_str())
            .collect();
        assert_eq!(files, vec!["crates/x/src/alpha.rs", "crates/x/src/beta.rs"]);
        assert_eq!(g.stats.resolved, 2);
    }

    #[test]
    fn turbofish_calls_and_qualified_owners() {
        let g = graph(&[(
            "a.rs",
            "struct Foo;\n\
             impl Foo { fn make() -> Foo { Foo } }\n\
             fn generic<T>() {}\n\
             fn caller() { let f = Foo::make(); generic::<u32>(); let _ = f; }",
        )]);
        assert_eq!(edge_names(&g, "caller"), vec!["Foo::make", "generic"]);
    }

    #[test]
    fn test_functions_are_excluded_from_nodes_and_reachability() {
        let g = graph(&[(
            "a.rs",
            "fn prod() { helper(); }\n\
             fn helper() {}\n\
             #[cfg(test)]\n\
             mod tests { fn t() { super::helper(); } }",
        )]);
        assert_eq!(g.stats.functions, 2);
        let roots = g.find_roots("a.rs::prod");
        let parent = g.reachable(&roots);
        assert_eq!(parent.len(), 2);
        let helper = g
            .nodes
            .iter()
            .position(|n| n.display() == "helper")
            .unwrap();
        assert_eq!(g.chain(&parent, helper), vec!["prod", "helper"]);
    }
}
