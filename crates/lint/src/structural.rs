//! The four structural rules, built on the scope parser
//! ([`crate::scope`]), content fingerprints ([`crate::fingerprint`]), and
//! workspace call graph ([`crate::callgraph`]).
//!
//! Where the flat rules in [`crate::rules`] match token patterns on single
//! lines, these reason about *extents*: which function a token belongs to,
//! how far a lock guard's scope runs, which `pub` API transitively reaches
//! a panic site. They stay over-approximate in the same spirit — a false
//! positive costs one justified suppression, a false negative costs a
//! silently broken contract.

use crate::baseline::OracleEntry;
use crate::callgraph;
use crate::diag::Finding;
use crate::fingerprint::fn_fingerprint;
use crate::lexer::{Token, TokenKind};
use crate::scope::is_keyword;
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeMap;

/// The functions the oracle registry must always pin: the cross-backend
/// agreement oracles designated in docs/SOLVERS.md and DESIGN.md, plus the
/// streaming-equivalence anchors of DESIGN.md §17 — the batch dataset
/// builder the streamed build must reproduce bit-identically, the shared
/// per-point characterization kernel, and the two store codecs whose byte
/// layout the on-disk format version pins. The registry may pin more; it
/// may not pin fewer.
pub const REQUIRED_ORACLES: &[&str] = &[
    "Matrix::matmul_reference",
    "Graph::backward_reference",
    "DcSolver::newton_loop",
    "build_dataset_opts",
    "characterize_point",
    "StoreMeta::encode",
    "StoreRecord::encode",
];

/// Crates where `[]` indexing and panicking slice methods count as panic
/// sites for reachability: their shipping code sits behind
/// externally-driven input (wire bytes, metric values), where an
/// out-of-bounds is a request-triggerable abort. Numeric crates are exempt
/// — their indices are loop-bounded by construction and covered by
/// property tests — as is pnc-lint itself (a tool crash is a loud CI
/// failure, the same failure mode as a binary).
const INDEX_SITE_CRATES: &[&str] = &["pnc-serve", "pnc-obs"];

/// Slice methods that panic on bad arguments, counted as sites in
/// [`INDEX_SITE_CRATES`].
const PANICKY_SLICE_METHODS: &[&str] = &["split_at", "split_at_mut", "copy_from_slice"];

/// Crates the lock-across-blocking rule patrols: worker pools and
/// connection handlers, where a guard held across a blocking call lets one
/// stalled peer wedge every thread contending for the lock.
const LOCK_RULE_CRATES: &[&str] = &["pnc-serve"];

/// Method names that block on I/O, a peer, or a thread.
const BLOCKING_IDENTS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
    "read_frame",
    "write_frame",
    "connect",
    "accept",
    "incoming",
    "join",
    "recv",
    "recv_timeout",
    "send",
    "send_timeout",
];

/// Chain terminators that consume a parallel iterator without an implicit
/// unordered reduction (so a `let` binding containing one is *not* a live
/// parallel chain afterwards).
const PAR_TERMINAL_IDENTS: &[&str] = &[
    "collect",
    "for_each",
    "try_for_each",
    "count",
    "ordered_par_map",
    "try_ordered_par_map",
    "max",
    "min",
    "any",
    "all",
    "position",
    "find_first",
    "find_any",
];

/// Runs every structural rule. `oracles` is the registry section of the
/// baseline file (rule input, unlike the ratchet counts which post-process
/// findings).
pub fn check_structural(
    files: &[SourceFile],
    oracles: &BTreeMap<String, OracleEntry>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    oracle_freeze(files, oracles, &mut findings);
    panic_reachability(files, &mut findings);
    for file in files {
        lock_across_blocking(file, &mut findings);
        unordered_float_reduction(file, &mut findings);
    }
    findings
}

// ---------------------------------------------------------------- oracle-freeze

fn oracle_freeze(
    files: &[SourceFile],
    oracles: &BTreeMap<String, OracleEntry>,
    out: &mut Vec<Finding>,
) {
    const RULE: &str = "oracle-freeze";
    for (key, entry) in oracles {
        let Some((qual, path)) = key.split_once(' ') else {
            out.push(Finding::new(
                RULE,
                "lint_baseline.json",
                1,
                1,
                format!("malformed oracle registry key `{key}` (expected `<Qual::fn> <path>`)"),
            ));
            continue;
        };
        let Some(file) = files.iter().find(|f| f.path == path) else {
            out.push(Finding::new(
                RULE,
                path,
                1,
                1,
                format!(
                    "oracle registry pins `{qual}` in this file, but the file is gone — \
                     restore it or remove the registry entry with a justification"
                ),
            ));
            continue;
        };
        let Some(item) = file.fns.iter().find(|f| f.qual == qual || f.name == qual) else {
            out.push(Finding::new(
                RULE,
                path,
                1,
                1,
                format!(
                    "frozen oracle fn `{qual}` no longer exists in this file (renamed or \
                     deleted?); oracles may only change via `update-oracles --justify`"
                ),
            ));
            continue;
        };
        if entry.justification.trim().is_empty() {
            out.push(Finding::new(
                RULE,
                path,
                item.line,
                item.col,
                format!(
                    "oracle registry entry for `{qual}` has no justification; every freeze \
                     (and re-freeze) must say why the pinned body is the trusted one"
                ),
            ));
        }
        let actual = fn_fingerprint(&file.tokens, item);
        if entry.hash.is_empty() {
            out.push(Finding::new(
                RULE,
                path,
                item.line,
                item.col,
                format!(
                    "oracle `{qual}` is registered but has no pinned hash; run \
                     `cargo run -p pnc-lint -- update-oracles --justify \"<why>\"`"
                ),
            ));
        } else if actual != entry.hash {
            out.push(Finding::new(
                RULE,
                path,
                item.line,
                item.col,
                format!(
                    "frozen oracle fn `{qual}` was edited: content hash is {actual}, registry \
                     pins {}; if the new body is the intended oracle, re-freeze with \
                     `update-oracles --justify \"<why the change preserves the contract>\"`",
                    entry.hash
                ),
            ));
        }
    }
    for req in REQUIRED_ORACLES {
        let registered = oracles
            .keys()
            .any(|k| k.split_once(' ').map(|(q, _)| q) == Some(req));
        if !registered {
            out.push(Finding::new(
                RULE,
                "lint_baseline.json",
                1,
                1,
                format!(
                    "required oracle `{req}` is not pinned in the registry; run \
                     `update-oracles --justify \"<why>\"` to freeze it"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------- panic-reachability

/// One residual panic site found in library code.
struct PanicSite {
    file: usize,
    token: usize,
    what: String,
}

fn panic_reachability(files: &[SourceFile], out: &mut Vec<Finding>) {
    const RULE: &str = "panic-reachability";
    let graph = callgraph::build(files);
    let reach = graph.reach_from_pub(files);

    let mut sites: Vec<PanicSite> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !matches!(file.kind, FileKind::CrateRoot | FileKind::Lib) {
            continue;
        }
        let index_sites = INDEX_SITE_CRATES.contains(&file.crate_name.as_str());
        let code: Vec<(usize, &Token)> = file.code_tokens().collect();
        for (c, &(orig, tok)) in code.iter().enumerate() {
            if file.is_test_line(tok.line) {
                continue;
            }
            match tok.kind {
                TokenKind::Ident => {
                    let method_call = matches!(tok.text.as_str(), "unwrap" | "expect")
                        && c > 0
                        && code[c - 1].1.is_punct('.');
                    let macro_call = matches!(
                        tok.text.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    ) && code.get(c + 1).is_some_and(|(_, t)| t.is_punct('!'));
                    let slice_method = index_sites
                        && PANICKY_SLICE_METHODS.contains(&tok.text.as_str())
                        && c > 0
                        && code[c - 1].1.is_punct('.')
                        && code.get(c + 1).is_some_and(|(_, t)| t.is_punct('('));
                    if method_call || slice_method {
                        sites.push(PanicSite {
                            file: fi,
                            token: orig,
                            what: format!(".{}()", tok.text),
                        });
                    } else if macro_call {
                        sites.push(PanicSite {
                            file: fi,
                            token: orig,
                            what: format!("{}!", tok.text),
                        });
                    }
                }
                TokenKind::Punct if index_sites && tok.is_punct('[') && c > 0 => {
                    // `expr[...]` indexing: `[` directly after an index-able
                    // expression tail — an identifier (not a keyword) or a
                    // closing `)`/`]`. Everything else (`#[attr]`, `vec![`,
                    // `[T; N]` types, array literals after `=`/`(`) is not
                    // an Index::index call.
                    let prev = code[c - 1].1;
                    let indexes = match prev.kind {
                        TokenKind::Ident => !is_keyword(&prev.text),
                        TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                        _ => false,
                    };
                    if indexes {
                        sites.push(PanicSite {
                            file: fi,
                            token: orig,
                            what: "`[]` indexing".to_string(),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    for site in &sites {
        let file = &files[site.file];
        let Some(item_idx) = file
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| (f.sig_start..=f.body_close).contains(&site.token))
            .min_by_key(|(_, f)| f.body_close - f.sig_start)
            .map(|(i, _)| i)
        else {
            continue; // site outside any fn (const initializer) — compile-time
        };
        let Some(node) = graph.node_of(site.file, item_idx) else {
            continue; // enclosing fn is test-only
        };
        let Some(dist) = reach.dist(node) else {
            continue; // not reachable from any pub API
        };
        let tok = &file.tokens[site.token];
        let path = reach.path(&graph, files, node);
        let route = if dist == 0 {
            format!("inside pub fn `{}` itself", path.join(" -> "))
        } else {
            let unit = if dist == 1 { "call" } else { "calls" };
            format!("via `{}` ({dist} {unit})", path.join(" -> "))
        };
        out.push(Finding::new(
            RULE,
            &file.path,
            tok.line,
            tok.col,
            format!(
                "{} is reachable from the pub API {route}; return a Result, bound the \
                 access, or suppress with the invariant that rules the panic out",
                site.what
            ),
        ));
    }
}

// -------------------------------------------------------- lock-across-blocking

/// A live lock-guard binding.
struct Guard {
    name: String,
    depth: i32,
    line: u32,
}

fn lock_across_blocking(file: &SourceFile, out: &mut Vec<Finding>) {
    const RULE: &str = "lock-across-blocking";
    if !LOCK_RULE_CRATES.contains(&file.crate_name.as_str()) || !file.kind.is_shipping() {
        return;
    }
    let code: Vec<(usize, &Token)> = file.code_tokens().collect();
    for item in &file.fns {
        // Code-token indices of the body interior.
        let body: Vec<usize> = (0..code.len())
            .filter(|&c| code[c].0 > item.body_open && code[c].0 < item.body_close)
            .collect();
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 0i32;
        let mut b = 0usize;
        while b < body.len() {
            let c = body[b];
            let tok = code[c].1;
            if tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct('}') {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            } else if tok.is_ident("let") {
                // `let [mut] name = … .lock( … ) … ;` at this depth starts a
                // guard; any other `let name` re-binding kills a prior guard
                // of the same name.
                let mut n = b + 1;
                if n < body.len() && code[body[n]].1.is_ident("mut") {
                    n += 1;
                }
                if n < body.len() && code[body[n]].1.kind == TokenKind::Ident {
                    let name = code[body[n]].1.text.clone();
                    if stmt_locks(&code, &body, n + 1) {
                        guards.retain(|g| g.name != name);
                        guards.push(Guard {
                            name,
                            depth,
                            line: tok.line,
                        });
                    } else {
                        guards.retain(|g| g.name != name);
                    }
                }
            } else if tok.is_ident("drop")
                && body.get(b + 1).is_some_and(|&n| code[n].1.is_punct('('))
                && body
                    .get(b + 2)
                    .is_some_and(|&n| code[n].1.kind == TokenKind::Ident)
                && body.get(b + 3).is_some_and(|&n| code[n].1.is_punct(')'))
            {
                let name = &code[body[b + 2]].1.text;
                guards.retain(|g| &g.name != name);
                b += 3;
            } else if tok.kind == TokenKind::Ident
                && BLOCKING_IDENTS.contains(&tok.text.as_str())
                && !file.is_test_line(tok.line)
                && b > 0
                && (code[body[b - 1]].1.is_punct('.') || code[body[b - 1]].1.is_punct(':'))
                && body.get(b + 1).is_some_and(|&n| code[n].1.is_punct('('))
            {
                let args = call_args(&code, &body, b + 1);
                for g in &guards {
                    // A guard passed *into* the call is being consumed
                    // (`condvar.wait(state)` takes it by value) — that is
                    // the correct idiom, not a hold-across-block.
                    if args.iter().any(|a| a == &g.name) {
                        continue;
                    }
                    out.push(Finding::new(
                        RULE,
                        &file.path,
                        tok.line,
                        tok.col,
                        format!(
                            "lock guard `{}` (taken on line {}) is live across blocking \
                             `.{}()`; a stalled peer holds up every thread contending for \
                             the mutex — drop the guard or narrow its scope first",
                            g.name, g.line, tok.text
                        ),
                    ));
                }
            }
            b += 1;
        }
    }
}

/// True when the statement starting at body position `start` (just past
/// `let [mut] name`) contains `.lock(` at its own brace depth — i.e. the
/// binding *is* the guard, not a block expression that locked internally.
fn stmt_locks(code: &[(usize, &Token)], body: &[usize], start: usize) -> bool {
    let mut depth = 0i32;
    let mut b = start;
    while b < body.len() {
        let tok = code[body[b]].1;
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return false;
            }
        } else if depth == 0 && tok.is_punct(';') {
            return false;
        } else if depth == 0
            && tok.is_ident("lock")
            && b > 0
            && code[body[b - 1]].1.is_punct('.')
            && body.get(b + 1).is_some_and(|&n| code[n].1.is_punct('('))
        {
            return true;
        }
        b += 1;
    }
    false
}

/// Identifier tokens inside the call whose `(` sits at body position
/// `open_b`.
fn call_args(code: &[(usize, &Token)], body: &[usize], open_b: usize) -> Vec<String> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut b = open_b;
    while b < body.len() {
        let tok = code[body[b]].1;
        if tok.is_punct('(') {
            depth += 1;
        } else if tok.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if tok.kind == TokenKind::Ident && !is_keyword(&tok.text) {
            args.push(tok.text.clone());
        }
        b += 1;
    }
    args
}

// --------------------------------------------------- unordered-float-reduction

fn unordered_float_reduction(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.kind.is_shipping() || file.path == crate::rules::ORDERED_HELPER_FILE {
        return;
    }
    let code: Vec<(usize, &Token)> = file.code_tokens().collect();
    for item in &file.fns {
        let body: Vec<usize> = (0..code.len())
            .filter(|&c| code[c].0 > item.body_open && code[c].0 < item.body_close)
            .collect();
        deferred_par_reductions(file, &code, &body, out);
        captured_accumulators(file, &code, &body, out);
    }
}

/// Part (a): a `let chain = xs.par_iter().map(…);` binding (no terminal
/// consumer in the statement) later reduced with `chain.sum()` — the
/// line-local `ordered-reduction` rule cannot see the two lines together.
fn deferred_par_reductions(
    file: &SourceFile,
    code: &[(usize, &Token)],
    body: &[usize],
    out: &mut Vec<Finding>,
) {
    // name -> declaration depth of still-live deferred parallel chains.
    let mut live: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut b = 0usize;
    while b < body.len() {
        let tok = code[body[b]].1;
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            live.retain(|&(_, d)| d <= depth);
        } else if tok.is_ident("let") {
            let mut n = b + 1;
            if n < body.len() && code[body[n]].1.is_ident("mut") {
                n += 1;
            }
            if n < body.len() && code[body[n]].1.kind == TokenKind::Ident {
                let name = code[body[n]].1.text.clone();
                let (has_par, has_terminal, stmt_end) = scan_stmt(code, body, n + 1);
                live.retain(|(l, _)| l != &name);
                if has_par && !has_terminal && !file.is_test_line(tok.line) {
                    live.push((name, depth));
                }
                b = stmt_end;
                continue;
            }
        } else if tok.kind == TokenKind::Ident && !file.is_test_line(tok.line) {
            let reduced = live.iter().any(|(l, _)| l == &tok.text)
                && body.get(b + 1).is_some_and(|&n| code[n].1.is_punct('.'))
                && body.get(b + 2).is_some_and(|&n| {
                    let t = code[n].1;
                    t.kind == TokenKind::Ident
                        && crate::rules::REDUCTION_IDENTS.contains(&t.text.as_str())
                });
            if reduced {
                let red = code[body[b + 2]].1;
                out.push(Finding::new(
                    RULE_ID,
                    &file.path,
                    red.line,
                    red.col,
                    format!(
                        "`{}` holds an unconsumed parallel chain and `.{}()` reduces it in \
                         scheduling order; collect with ordered_par_map and reduce serially",
                        tok.text, red.text
                    ),
                ));
            }
        }
        b += 1;
    }
}

const RULE_ID: &str = "unordered-float-reduction";

/// Scans a statement from body position `start` to its `;` (at the
/// statement's own brace depth). Returns (contains a par-iter adapter,
/// contains a terminal consumer, body index of the statement end).
fn scan_stmt(code: &[(usize, &Token)], body: &[usize], start: usize) -> (bool, bool, usize) {
    let mut depth = 0i32;
    let mut has_par = false;
    let mut has_terminal = false;
    let mut b = start;
    while b < body.len() {
        let tok = code[body[b]].1;
        if tok.is_punct('{') || tok.is_punct('(') || tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct('}') || tok.is_punct(')') || tok.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && tok.is_punct(';') {
            break;
        } else if tok.kind == TokenKind::Ident {
            if crate::rules::PAR_ITER_IDENTS.contains(&tok.text.as_str()) {
                has_par = true;
            }
            if PAR_TERMINAL_IDENTS.contains(&tok.text.as_str()) {
                has_terminal = true;
            }
        }
        b += 1;
    }
    (has_par, has_terminal, b)
}

/// Part (b): `total += …` inside a parallel-chain statement where `total`
/// is captured from outside the chain (not a closure parameter, not a local
/// `let` inside the chain) — racy or order-dependent accumulation that the
/// ordered helpers exist to replace.
fn captured_accumulators(
    file: &SourceFile,
    code: &[(usize, &Token)],
    body: &[usize],
    out: &mut Vec<Finding>,
) {
    let mut b = 0usize;
    while b < body.len() {
        let tok = code[body[b]].1;
        let starts_chain = tok.kind == TokenKind::Ident
            && crate::rules::PAR_ITER_IDENTS.contains(&tok.text.as_str())
            && !file.is_test_line(tok.line);
        if !starts_chain {
            b += 1;
            continue;
        }
        let (_, _, stmt_end) = scan_stmt(code, body, b);
        let span = &body[b..stmt_end.min(body.len())];

        // Names bound inside the span: closure parameters (idents between
        // `|…|`) and span-local `let` bindings. Over-approximate toward
        // *not* flagging: any ident between pipes counts (patterns, types).
        let mut local: Vec<String> = Vec::new();
        let mut k = 0usize;
        while k < span.len() {
            let t = code[span[k]].1;
            if t.is_punct('|') {
                let mut j = k + 1;
                while j < span.len() && !code[span[j]].1.is_punct('|') {
                    let p = code[span[j]].1;
                    if p.kind == TokenKind::Ident && !is_keyword(&p.text) {
                        local.push(p.text.clone());
                    }
                    j += 1;
                }
                k = j;
            } else if t.is_ident("let") {
                let mut j = k + 1;
                if j < span.len() && code[span[j]].1.is_ident("mut") {
                    j += 1;
                }
                if j < span.len() && code[span[j]].1.kind == TokenKind::Ident {
                    local.push(code[span[j]].1.text.clone());
                }
            }
            k += 1;
        }

        for k in 1..span.len() {
            let op = code[span[k - 1]].1;
            let eq = code[span[k]].1;
            let compound = matches!(op.kind, TokenKind::Punct)
                && matches!(op.text.as_str(), "+" | "-" | "*" | "/")
                && eq.is_punct('=')
                && eq.line == op.line
                && eq.col == op.col + 1;
            if !compound {
                continue;
            }
            let Some(root) = lhs_root(code, span, k - 1) else {
                continue;
            };
            if local.iter().any(|l| l == &root) {
                continue;
            }
            out.push(Finding::new(
                RULE_ID,
                &file.path,
                op.line,
                op.col,
                format!(
                    "compound assignment `{}=` to `{root}` captured inside a parallel \
                     chain accumulates in scheduling order; collect with ordered_par_map \
                     and reduce serially",
                    op.text
                ),
            ));
        }
        b = stmt_end.max(b + 1);
    }
}

/// Walks left from the compound operator at span position `op` to the root
/// identifier of the assignment target (`self.total` → `self`,
/// `acc[i]` → `acc`).
fn lhs_root(code: &[(usize, &Token)], span: &[usize], op: usize) -> Option<String> {
    let mut k = op.checked_sub(1)?;
    loop {
        let tok = code[span[k]].1;
        if tok.is_punct(']') || tok.is_punct(')') {
            // Skip the bracketed group.
            let close = if tok.is_punct(']') { ']' } else { ')' };
            let open = if close == ']' { '[' } else { '(' };
            let mut depth = 0i32;
            loop {
                let t = code[span[k]].1;
                if t.is_punct(close) {
                    depth += 1;
                } else if t.is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k = k.checked_sub(1)?;
            }
            k = k.checked_sub(1)?;
        } else if tok.kind == TokenKind::Ident {
            if k >= 2 && code[span[k - 1]].1.is_punct('.') {
                k -= 2; // field/deref chain: keep walking to the base
            } else {
                return Some(tok.text.clone());
            }
        } else {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn serve_file(src: &str) -> SourceFile {
        SourceFile::parse("crates/serve/src/x.rs", "pnc-serve", FileKind::Lib, src)
    }

    #[test]
    fn guard_across_blocking_io_is_flagged() {
        let f = serve_file(
            r#"
            fn handler(&self) {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                self.stream.write_all(&bytes)?;
            }
            "#,
        );
        let mut out = Vec::new();
        lock_across_blocking(&f, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("`state`"), "{}", out[0].message);
    }

    #[test]
    fn condvar_wait_consuming_the_guard_is_the_correct_idiom() {
        let f = serve_file(
            r#"
            fn next(&self) {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            }
            "#,
        );
        let mut out = Vec::new();
        lock_across_blocking(&f, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn guard_scoped_in_an_inner_block_before_join_is_clean() {
        let f = serve_file(
            r#"
            fn shutdown(&self) {
                let workers = {
                    let mut guard = self.workers.lock().unwrap_or_else(|e| e.into_inner());
                    std::mem::take(&mut *guard)
                };
                for w in workers { let _ = w.join(); }
            }
            "#,
        );
        let mut out = Vec::new();
        lock_across_blocking(&f, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn dropped_guard_is_dead_before_the_blocking_call() {
        let f = serve_file(
            r#"
            fn push(&self) {
                let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                drop(state);
                self.stream.flush()?;
            }
            "#,
        );
        let mut out = Vec::new();
        lock_across_blocking(&f, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn deferred_par_chain_reduced_later_is_flagged() {
        let f = SourceFile::parse(
            "crates/core/src/x.rs",
            "pnc-core",
            FileKind::Lib,
            r#"
            fn total(xs: &[f64]) -> f64 {
                let chain = xs.par_iter().map(|x| x * 2.0);
                chain.sum()
            }
            "#,
        );
        let mut out = Vec::new();
        unordered_float_reduction(&f, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("chain"), "{}", out[0].message);
    }

    #[test]
    fn collected_chain_is_not_a_live_parallel_iterator() {
        let f = SourceFile::parse(
            "crates/core/src/x.rs",
            "pnc-core",
            FileKind::Lib,
            r#"
            fn total(xs: &[f64]) -> f64 {
                let rows: Vec<f64> = xs.par_iter().map(|x| x * 2.0).collect();
                rows.iter().sum()
            }
            "#,
        );
        let mut out = Vec::new();
        unordered_float_reduction(&f, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn captured_accumulator_is_flagged_but_closure_locals_are_not() {
        let f = SourceFile::parse(
            "crates/core/src/x.rs",
            "pnc-core",
            FileKind::Lib,
            r#"
            fn bad(xs: &[f64], total: &mut f64) {
                xs.par_iter().for_each(|x| { *total += x; });
            }
            fn good(xs: &[f64]) -> Vec<f64> {
                xs.par_iter().map(|x| { let mut acc = 0.0; acc += x; acc }).collect()
            }
            "#,
        );
        let mut out = Vec::new();
        unordered_float_reduction(&f, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("total"), "{}", out[0].message);
    }

    #[test]
    fn serial_fold_inside_a_per_item_closure_is_deterministic() {
        let f = SourceFile::parse(
            "crates/core/src/x.rs",
            "pnc-core",
            FileKind::Lib,
            r#"
            fn rows(xs: &[Vec<f64>]) -> Vec<f64> {
                xs.par_iter().map(|row| row.iter().fold(0.0, |a, b| a + b)).collect()
            }
            "#,
        );
        let mut out = Vec::new();
        unordered_float_reduction(&f, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }
}
