//! # pnc-lint — workspace-invariant static analysis
//!
//! A from-scratch, zero-dependency, token-level static analyzer for this
//! workspace's own source. It enforces the three contracts the paper
//! reproduction depends on and that `cargo test` can only spot-check at
//! runtime:
//!
//! * **Determinism** — results are bit-identical at any `PNC_NUM_THREADS`.
//!   Statically that means: no wall-clock reads in numeric paths
//!   (`no-wallclock`), no hash-ordered iteration in numeric crates
//!   (`no-hash-iteration`), and no scheduling-dependent float reductions in
//!   rayon chains (`ordered-reduction`).
//! * **Panic-freedom** — shipping code returns `Result` instead of
//!   aborting (`no-panic-in-lib`, ratcheted down via a checked-in
//!   baseline), and every crate keeps `#![forbid(unsafe_code)]`
//!   (`forbid-unsafe-kept`).
//! * **Doc/code consistency** — metric names match `docs/METRICS.md` 1:1
//!   (`metric-key-drift`) and every `PNC_…` environment variable read is in
//!   the README table (`env-var-registry`).
//!
//! On top of the flat token rules, a structural layer ([`scope`],
//! [`fingerprint`], [`callgraph`], [`structural`]) adds four rules that
//! reason about extents instead of lines:
//!
//! * **`oracle-freeze`** — the registry in `lint_baseline.json` pins
//!   content hashes of the designated oracle fns (`matmul_reference`,
//!   `backward_reference`, `newton_loop`); any body edit is a finding
//!   until re-frozen with `update-oracles --justify`.
//! * **`panic-reachability`** — walks the workspace call graph from every
//!   `pub` library fn to residual panic sites (including `[]` indexing in
//!   the input-facing crates) and reports the shortest call path.
//! * **`lock-across-blocking`** — a `MutexGuard` live across TCP/file I/O
//!   or `Condvar::wait` in `pnc-serve`.
//! * **`unordered-float-reduction`** — deferred parallel chains and
//!   captured `+=` accumulators that bypass the ordered helpers, where the
//!   line-local `ordered-reduction` rule cannot see the flow.
//!
//! The analyzer lexes (never fully parses) Rust: a small lexer
//! distinguishes code from comments, strings, raw strings, char literals,
//! and lifetimes; a brace-matched scope parser recovers fn/impl/mod
//! extents; and the rules are explicit token-pattern matches. That keeps
//! the whole subsystem dependency-free (no `syn`), fast, and simple to
//! audit. False positives are handled with inline suppressions that must
//! carry a reason; stale suppressions are themselves findings.
//!
//! The rule catalogue with examples lives in `docs/LINTS.md`; the
//! architecture notes are DESIGN.md §10. Run it as:
//!
//! ```text
//! cargo run -p pnc-lint -- check            # gate: nonzero exit on new findings
//! cargo run -p pnc-lint -- report           # everything, including suppressed
//! cargo run -p pnc-lint -- update-baseline  # re-ratchet after paying down debt
//! cargo run -p pnc-lint -- update-oracles --justify "<why>"  # re-freeze oracles
//! cargo run -p pnc-lint -- rules            # list rule ids and summaries
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod diag;
pub mod docs;
pub mod engine;
pub mod fingerprint;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod source;
pub mod structural;
pub mod workspace;

pub use diag::{Finding, Status};
pub use source::{FileKind, SourceFile};
