#![deny(missing_docs)]

//! # capstan-serve
//!
//! Simulation-as-a-service: a batched, content-addressed experiment
//! server over plain threaded TCP (std-only — this workspace builds
//! fully offline, so there is no async runtime and no serialization
//! dependency; the wire protocol is newline-framed text).
//!
//! Capstan's simulated-cycle counts are deterministic and
//! machine-independent — the repo pins them with golden tests and a CI
//! bench gate — which makes experiment results *content-addressable*: a
//! request is fully described by `(experiment, suite scale, memory
//! configuration)`, and any two identical requests must produce
//! byte-identical report text. The server exploits that end to end:
//!
//! * **Content-addressed cache** ([`key`]): every request canonicalizes
//!   to an FNV-1a-64 key over the canonical encoding
//!   ([`capstan_sim::snapshot::SnapshotWriter`]) of its experiment name,
//!   dataset fingerprint ([`capstan_bench::Suite::fingerprint`]) and
//!   memory configuration. A repeated request is served
//!   from the cache without touching a core; concurrent duplicates
//!   coalesce onto one in-flight job.
//! * **Batching** ([`server`]): compatible queued requests (same scale
//!   and memory configuration) are drained into one batch, and each
//!   group runs in one worker *process* — a plain `experiments`
//!   invocation with the spec's flags, a `--resume` journal and
//!   `--no-bench-out`. Each served row and report is read back from
//!   that journal.
//! * **Crash-safe workers**: the journal comes from the
//!   resumable-harness layer, so a killed worker is respawned and
//!   *resumes* — journaled rows replay byte-for-byte instead of
//!   recomputing.
//! * **One codec** ([`key`]): [`key::RunSpec`] and its field table
//!   spell a run's configuration for the wire, the CLI and the worker
//!   command line, and validate every value in one place.
//!
//! The `experiments` binary (which lives in this crate so it can be
//! both the first server and the first client) exposes the whole layer
//! as `--serve ADDR` / `--submit ADDR`; [`proto`] documents the wire
//! format and its typed errors, and [`client`] is the blocking client
//! used by `--submit` and the black-box conformance tests.

pub mod cache;
pub mod client;
pub mod key;
pub mod proto;
pub mod server;
