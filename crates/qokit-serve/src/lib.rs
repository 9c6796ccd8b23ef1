//! Long-lived QAOA serving layer.
//!
//! A simulator restart pays the full diagonal precompute again; a
//! parameter-sweep service should pay it once per problem. This crate
//! wraps the one-shot engines ([`qokit_core::batch::SweepRunner`],
//! [`qokit_optim::MultiStart`], [`qokit_core::lightcone`]) in a
//! loopback-TCP server that keeps the expensive state alive between
//! requests:
//!
//! * **Precompute cache** ([`cache::PrecomputeCache`]) — problem-keyed
//!   (`canonical polynomial bytes + simulator spec`) map of built
//!   [`FurSimulator`](qokit_core::simulator::FurSimulator)s with
//!   LRU-by-bytes eviction and hit/miss/evict counters. A repeated
//!   submission skips straight to the evolution kernels.
//! * **Bounded job queue** ([`server::Server`]) — admission control on
//!   outstanding (queued + running) jobs; overload answers an explicit
//!   [`Rejected`](proto::ServeResponse::Rejected), never a hang. With
//!   more than one lane, each lane worker runs its jobs inside a
//!   [`ThreadPool`](rayon::ThreadPool) of its own, built for the run.
//! * **Deadlines + cancellation** — every job carries a cooperative
//!   cancel token; `Cancel` frames, deadline expiry, and client
//!   disconnects all stop the job at its next checkpoint and free the
//!   lane. Sibling jobs finish bit-identically.
//! * **Progress streaming** — sweep jobs emit periodic
//!   [`LandscapeAggregator`](qokit_core::landscape::LandscapeAggregator)
//!   snapshots as [`Progress`](proto::ServeResponse::Progress) frames.
//!
//! The wire protocol is the workspace's dependency-free length-prefixed
//! framing ([`qokit_dist::frame`]): magic, `u32` payload length,
//! 64-bit word-wise checksum, payload; `f64`s travel as exact IEEE-754 bits, so
//! a served result is bit-for-bit the one-shot API's result.
//!
//! # Quick start
//!
//! In-process (tests, examples):
//!
//! ```no_run
//! use qokit_serve::{Server, ServerConfig, ServeClient, SweepJob};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let handle = server.spawn_thread().unwrap();
//! let mut client = ServeClient::connect(handle.addr()).unwrap();
//! client.ping().unwrap();
//! // ... submit jobs ...
//! client.shutdown_server().unwrap();
//! handle.join();
//! ```
//!
//! As a process: run the `qokit-serve` binary; it prints
//! `SERVE_ADDR=<host:port>` on stdout once listening. Configuration via
//! `QOKIT_SERVE_ADDR`, `QOKIT_SERVE_QUEUE`, `QOKIT_SERVE_CACHE_BYTES`.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use cache::PrecomputeCache;
pub use client::{ClientError, JobOutcome, ProgressAction, ProgressSnapshot, ServeClient};
pub use proto::{
    CacheStatsView, LightConeJob, LightConeSummary, MultiStartJob, MultiStartSummary, ServeRequest,
    ServeResponse, SweepJob, SweepSummary,
};
pub use server::{
    Server, ServerConfig, ServerHandle, SERVE_ADDR_ENV, SERVE_CACHE_BYTES_ENV, SERVE_QUEUE_ENV,
};
